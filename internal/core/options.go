package core

import "fmt"

// normalized applies defaults and enforces the rules that decide whether
// the config assembles a working system, returning the resolved config
// build consumes. The rules:
//
//   - CacheFrames and Cores are always required.
//   - With Backings, the backings size the pool: RemoteBytes must be 0
//     and MemNodes must be 0 or exactly len(Backings).
//   - Without Backings, RemoteBytes is required (MemNodes defaults to 1).
//   - Replicas (default 1) must not exceed the memory node count.
//   - SampleEvery without Tel is rejected — there is nowhere to sample to.
//   - Migrate tuning must pass migrate.Tuning.Validate.
func (c Config) normalized() (Config, error) {
	if c.CacheFrames <= 0 {
		return c, fmt.Errorf("core: CacheFrames is required (got %d)", c.CacheFrames)
	}
	if c.Cores <= 0 {
		return c, fmt.Errorf("core: Cores is required (got %d)", c.Cores)
	}
	if len(c.Backings) > 0 {
		if c.RemoteBytes != 0 {
			return c, fmt.Errorf("core: RemoteBytes (%d) is meaningless with Backings — the backings size themselves; set it to 0", c.RemoteBytes)
		}
		if c.MemNodes != 0 && c.MemNodes != len(c.Backings) {
			return c, fmt.Errorf("core: MemNodes (%d) contradicts len(Backings) (%d); leave MemNodes 0 to derive it", c.MemNodes, len(c.Backings))
		}
		c.MemNodes = len(c.Backings)
	} else {
		if c.RemoteBytes == 0 {
			return c, fmt.Errorf("core: RemoteBytes is required without Backings")
		}
		if c.MemNodes <= 0 {
			c.MemNodes = 1
		}
	}
	if c.Replicas < 0 {
		return c, fmt.Errorf("core: Replicas (%d) is negative; use 0 for the single-copy default", c.Replicas)
	}
	if c.Replicas == 0 {
		c.Replicas = 1
	}
	if c.Replicas > c.MemNodes {
		return c, fmt.Errorf("core: Replicas (%d) exceeds the memory node count (%d)", c.Replicas, c.MemNodes)
	}
	if c.SampleEvery > 0 && c.Tel == nil {
		return c, fmt.Errorf("core: SampleEvery (%v) without Tel has nowhere to sample to; set Tel or drop SampleEvery", c.SampleEvery)
	}
	if c.Migrate != nil {
		if err := c.Migrate.Validate(); err != nil {
			return c, fmt.Errorf("core: %w", err)
		}
	}
	if c.Shards < 0 {
		return c, fmt.Errorf("core: Shards (%d) is negative; use 0 for the legacy unsharded path", c.Shards)
	}
	if c.WideLocks && c.Shards < 1 {
		return c, fmt.Errorf("core: WideLocks is the shared-structure ablation of the sharded path; it requires Shards >= 1")
	}
	return c, nil
}
