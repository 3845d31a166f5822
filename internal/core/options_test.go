package core

import (
	"strings"
	"testing"

	"dilos/internal/fabric"
	"dilos/internal/memnode"
	"dilos/internal/migrate"
	"dilos/internal/sim"
	"dilos/internal/telemetry"
)

func TestConfigValidateRules(t *testing.T) {
	valid := Config{CacheFrames: 32, Cores: 1, RemoteBytes: 1 << 20}
	cases := []struct {
		name string
		mut  func(*Config)
		want string // error substring, "" = valid
	}{
		{"baseline", func(c *Config) {}, ""},
		{"no cache", func(c *Config) { c.CacheFrames = 0 }, "CacheFrames"},
		{"no cores", func(c *Config) { c.Cores = 0 }, "Cores"},
		{"no remote", func(c *Config) { c.RemoteBytes = 0 }, "RemoteBytes"},
		{"cores reported before remote", func(c *Config) { *c = Config{CacheFrames: 32} }, "Cores"},
		{"backings drop remote bytes", func(c *Config) {
			c.Backings = []Backing{memnode.New(1<<20, 1)}
			c.RemoteBytes = 0
		}, ""},
		{"backings with remote bytes", func(c *Config) {
			c.Backings = []Backing{memnode.New(1<<20, 1)}
		}, "meaningless with Backings"},
		{"backings with wrong memnodes", func(c *Config) {
			c.Backings = []Backing{memnode.New(1<<20, 1)}
			c.RemoteBytes = 0
			c.MemNodes = 3
		}, "contradicts"},
		{"backings with matching memnodes", func(c *Config) {
			c.Backings = []Backing{memnode.New(1<<20, 1), memnode.New(1<<20, 2)}
			c.RemoteBytes = 0
			c.MemNodes = 2
		}, ""},
		{"too many replicas", func(c *Config) { c.MemNodes, c.Replicas = 2, 3 }, "Replicas"},
		{"sampling without recorder", func(c *Config) { c.SampleEvery = sim.Millisecond }, "SampleEvery"},
		{"sampling with recorder", func(c *Config) {
			c.Tel = telemetry.NewRecorder(64)
			c.SampleEvery = sim.Millisecond
		}, ""},
		{"bad migrate tuning", func(c *Config) {
			c.Migrate = &migrate.Tuning{Watermark: -1}
		}, "Watermark"},
		{"watermark above one", func(c *Config) {
			c.Migrate = &migrate.Tuning{Watermark: 1.5}
		}, "Watermark"},
		{"negative replicas", func(c *Config) { c.Replicas = -1 }, "negative"},
		{"zero replicas defaults to one", func(c *Config) { c.Replicas = 0 }, ""},
	}
	for _, tc := range cases {
		cfg := valid
		tc.mut(&cfg)
		_, err := cfg.normalized()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestNewPanicsWithValidateError(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("New accepted an invalid config")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "RemoteBytes") {
			t.Fatalf("panic %v does not carry the validation error", r)
		}
	}()
	New(sim.New(), Config{CacheFrames: 32, Cores: 1})
}

func TestNewBuildsConfiguredSystem(t *testing.T) {
	// A validated config assembles a tiny system that runs a workload and
	// carries the migration engine its Migrate tuning asked for.
	cfg := Config{
		CacheFrames: 32,
		Cores:       2,
		RemoteBytes: 8 << 20,
		Fabric:      fabric.DefaultParams(),
		MemNodes:    2,
		Replicas:    2,
		Migrate:     &migrate.Tuning{},
	}
	if _, err := cfg.normalized(); err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	sys := New(eng, cfg)
	if sys.Mig == nil {
		t.Fatal("Migrate did not arm the engine")
	}
	sys.Start()
	sys.Launch("app", 0, func(sp *DDCProc) {
		base, err := sys.MmapDDC(64)
		if err != nil {
			t.Error(err)
			return
		}
		for i := uint64(0); i < 64; i++ {
			sp.StoreU64(base+i*PageSize, i)
		}
		for i := uint64(0); i < 64; i++ {
			if got := sp.LoadU64(base + i*PageSize); got != i {
				t.Errorf("page %d: %d", i, got)
				return
			}
		}
	})
	eng.Run()
	if sys.MajorFaults.N == 0 {
		t.Fatal("workload drove no faults")
	}
}
