package cluster

import (
	"context"
	"slices"
	"sort"
	"time"
)

// probeLoop polls one daemon's /healthz until Close. A failed probe
// marks the daemon down (queries skip it); a successful probe marks it
// up again and refreshes its shard inventory, re-deriving the placement
// when the inventory changed — a daemon restarted with different shards
// is re-placed, not served stale.
func (c *Coordinator) probeLoop(b *backend) {
	defer c.wg.Done()
	ticker := time.NewTicker(c.policy.probeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
		}
		c.probe(b)
	}
}

func (c *Coordinator) probe(b *backend) {
	ctx, cancel := context.WithTimeout(context.Background(), c.policy.probeTimeout)
	h, err := b.client.Health(ctx)
	cancel()
	b.lastProbeUnixNS.Store(time.Now().UnixNano())
	if err != nil {
		b.markDown(err)
		return
	}
	shards := append([]string(nil), h.Shards...)
	sort.Strings(shards)
	b.mu.Lock()
	changed := !slices.Equal(b.shards, shards)
	if changed {
		b.shards = shards
	}
	b.mu.Unlock()
	b.markUp()
	if changed {
		c.rebuildTable()
	}
}
