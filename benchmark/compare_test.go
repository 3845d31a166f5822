package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("got %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("got %v %v %v", q1, med, q3)
	}
	if q1, med, q3 := quartiles([]float64{7}); q1 != 7 || med != 7 || q3 != 7 {
		t.Errorf("one sample: %v %v %v", q1, med, q3)
	}
}

func TestJudge(t *testing.T) {
	at := func(v, q1, q3 float64) sample { return sample{Value: v, Q1: q1, Q3: q3, N: 7} }
	flat := func(v float64) sample { return at(v, v, v) }
	higher, _ := metricByName("host_ops_per_s") // 10 %
	lower, _ := metricByName("cpu_ns_per_op")   // 10 %
	setup, _ := metricByName("setup_s")         // 25 % or 0.25 s
	failed, _ := metricByName("failed_ops_pct") // any rise
	share, _ := metricByName("sim.host_share_pct")
	for _, c := range []struct {
		m    metricDef
		a, b sample
		want string
	}{
		{higher, flat(100), flat(95), verdictSame},
		{higher, flat(100), flat(89), verdictWorse},
		{higher, flat(100), flat(111), verdictBetter},
		{lower, flat(100), flat(111), verdictWorse},
		{lower, flat(100), flat(89), verdictBetter},
		{lower, at(100, 90, 105), flat(130), verdictUnresolved}, // A's own spread is 15 > 10
		{lower, flat(100), at(130, 120, 135), verdictUnresolved},
		{setup, flat(0.05), flat(0.25), verdictSame}, // inside the 0.25 s floor
		{setup, flat(0.05), flat(0.31), verdictWorse},
		{setup, flat(2), flat(2.6), verdictWorse}, // 25 % of 2 s is 0.5 s
		{failed, flat(0), flat(0), verdictSame},
		{failed, flat(0), flat(0.001), verdictWorse},
		{share, flat(10), flat(50), verdictInfo},
	} {
		if got, _ := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: %v → %v: %q, want %q", c.m.Name, c.a.Value, c.b.Value, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, ops, virt float64) string {
		ms := metricSet{}
		ms.set("host_ops_per_s", ops, 7)
		ms.set("virt_ops_per_s", virt, 7)
		ms.set("sim.host_share_pct", 5, 100)
		path := filepath.Join(dir, name)
		err := writeResults(path, &resultsFile{Workloads: map[string]*result{wFaultStorm: {Workload: wFaultStorm, Metrics: ms}}})
		if err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := mk("a.json", 1000, 5000), mk("same.json", 1010, 5000), mk("slow.json", 700, 5001)
	var out bytes.Buffer
	if worse, err := compareFiles(&out, a, same); err != nil || worse != 0 {
		t.Fatalf("worse=%d err=%v\n%s", worse, err, out.String())
	}
	out.Reset()
	worse, err := compareFiles(&out, a, slow)
	if err != nil || worse != 1 {
		t.Fatalf("worse=%d err=%v\n%s", worse, err, out.String())
	}
	if !strings.Contains(out.String(), "deterministic metric changed") {
		t.Errorf("a changed virtual-clock metric went unmarked:\n%s", out.String())
	}
}
