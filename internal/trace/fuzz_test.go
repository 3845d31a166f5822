package trace

import (
	"bytes"
	"testing"
)

// FuzzLoad hardens the trace decoder against corrupt files.
func FuzzLoad(f *testing.F) {
	r := NewRecorder(0)
	r.RecordOn(1, 2, Major, 0)
	r.RecordOn(5, 9, Write, 0)
	var seed bytes.Buffer
	r.Save(&seed)
	f.Add(seed.Bytes())
	f.Add([]byte("DTRC"))
	f.Add([]byte("XXXX\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever loads must save/load identically.
		r := NewRecorder(len(events) + 1)
		for _, e := range events {
			r.RecordOn(e.At, e.VPN, e.Kind, e.Core)
		}
		var buf bytes.Buffer
		if err := r.Save(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(events) {
			t.Fatal("length changed across save/load")
		}
	})
}
