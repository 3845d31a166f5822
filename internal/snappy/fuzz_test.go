package snappy

import (
	"bytes"
	"testing"
)

// FuzzRoundTrip drives the codec with arbitrary inputs (run with
// `go test -fuzz=FuzzRoundTrip ./internal/snappy`; the seeds below run as
// regular unit cases).
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("a"))
	f.Add(bytes.Repeat([]byte("dilos"), 4000))
	f.Add(bytes.Repeat([]byte{0xff, 0x00}, 70000)) // spans two blocks
	f.Fuzz(func(t *testing.T, src []byte) {
		if len(src) > 1<<20 {
			t.Skip()
		}
		comp := compressBytes(src)
		got := decompressBytes(comp, len(src))
		if !bytes.Equal(got, src) {
			t.Fatalf("round trip failed for %d bytes", len(src))
		}
	})
}
