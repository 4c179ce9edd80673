package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pde/internal/oracle"
	"pde/internal/par"
	"pde/internal/server"
)

// TestClusterKillOneReplicaMidStream is the failover acceptance test:
// a seeded query stream runs against a 3-daemon replicated shard
// through the coordinator while the primary replica is killed
// mid-stream. Every batch must come back, every answer must equal the
// single-daemon reference, and every response must carry the one live
// fingerprint — zero lost, wrong, or generation-mismatched answers.
func TestClusterKillOneReplicaMidStream(t *testing.T) {
	daemons := bootDaemons(t, []map[string]server.Spec{
		{"hot": hotSpec}, {"hot": hotSpec}, {"hot": hotSpec},
	})
	coord, cts := newCoordinator(t, daemons)
	ctx := context.Background()

	// Seeded stream: 48 batches of 16 queries, derived from the shard
	// size the same way every test in this repo derives workloads.
	const batches, perBatch = 48, 16
	n := hotSpec.N
	queries := make([][]oracle.Query, batches)
	seed := uint64(0x9e3779b97f4a7c15)
	for i := range queries {
		qs := make([]oracle.Query, perBatch)
		for j := range qs {
			seed = seed*6364136223846793005 + 1442695040888963407
			qs[j] = oracle.Query{V: int32((seed >> 33) % uint64(n)), S: int32((seed >> 17) % uint64(n))}
		}
		queries[i] = qs
	}

	// Reference answers from one daemon directly, before any failure.
	ref := &server.Client{BaseURL: daemons[0].url(), Shard: "hot"}
	want := make([][]oracle.Answer, batches)
	var wantFP string
	for i, qs := range queries {
		ans, fp, err := ref.Estimate(ctx, qs, false)
		if err != nil {
			t.Fatalf("reference batch %d: %v", i, err)
		}
		want[i] = ans
		if wantFP == "" {
			wantFP = fp
		}
	}

	// The victim is the shard's current primary — the replica the
	// router tries first, so its death is guaranteed to be on the path.
	victimURL := coord.Placement("hot")[0]
	var victim *testDaemon
	for _, d := range daemons {
		if d.url() == victimURL {
			victim = d
		}
	}
	if victim == nil {
		t.Fatalf("primary %s is not one of the booted daemons", victimURL)
	}

	// Drive the stream through the coordinator with two workers, and
	// kill the primary once the stream is halfway claimed.
	cls := []*server.Client{
		{BaseURL: cts.URL, Shard: "hot"},
		{BaseURL: cts.URL, Shard: "hot"},
	}
	got := make([][]oracle.Answer, batches)
	fps := make([]string, batches)
	var killOnce sync.Once
	err := par.For(len(cls), batches, func(c, i int) error {
		if i >= batches/2 {
			killOnce.Do(victim.kill)
		}
		ans, fp, err := cls[c].Estimate(ctx, queries[i], false)
		if err != nil {
			return err
		}
		got[i], fps[i] = ans, fp
		return nil
	})
	if err != nil {
		t.Fatalf("stream lost a batch to the kill: %v", err)
	}

	for i := range queries {
		if got[i] == nil {
			t.Fatalf("batch %d was never answered", i)
		}
		if fps[i] != wantFP {
			t.Fatalf("batch %d stamped generation %s, want %s", i, fps[i], wantFP)
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("batch %d answer %d = %+v, want %+v", i, j, got[i][j], want[i][j])
			}
		}
	}

	// The router must have actually failed over, and the prober must
	// converge on 2 healthy replicas that still agree.
	st, err := FetchStatus(ctx, cts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if st.Failovers == 0 {
		t.Fatalf("stream survived but the router recorded no failovers: %+v", st)
	}
	waitFor(t, "prober to mark the killed replica down", func() bool {
		st, err := FetchStatus(ctx, cts.URL)
		return err == nil && st.Shards["hot"].Healthy == 2
	})
	st, err = FetchStatus(ctx, cts.URL)
	if err != nil {
		t.Fatal(err)
	}
	pl := st.Shards["hot"]
	if !pl.Agree || len(pl.Fingerprints) != 2 {
		t.Fatalf("survivors diverge after failover: %+v", pl)
	}
	for _, fp := range pl.Fingerprints {
		if fp != wantFP {
			t.Fatalf("survivor serves %s, want %s", fp, wantFP)
		}
	}

	// Queries keep working after convergence, still on the same
	// generation.
	post := &server.Client{BaseURL: cts.URL, Shard: "hot"}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, fp, err := post.Estimate(ctx, queries[0], true)
		if err == nil {
			if fp != wantFP {
				t.Fatalf("post-failover answer stamped %s, want %s", fp, wantFP)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("post-failover query: %v", err)
		}
	}
}

// TestSweepPolicy pins the one failover policy both relays answer
// through, without a network: pass count, backoff waits, health-first
// ordering and which outcomes mark a daemon down.
func TestSweepPolicy(t *testing.T) {
	newFleet := func(healthy ...bool) (*Coordinator, []*backend) {
		c := &Coordinator{policy: fixedPolicy}
		c.policy.retryBackoff = time.Millisecond
		reps := make([]*backend, len(healthy))
		for i, h := range healthy {
			reps[i] = &backend{url: string(rune('a' + i))}
			reps[i].healthy.Store(h)
		}
		return c, reps
	}
	ctx := context.Background()

	t.Run("every replica unreachable", func(t *testing.T) {
		c, reps := newFleet(true, true)
		tries := 0
		err := c.sweep(ctx, reps, func(b *backend) (bool, error) {
			tries++
			return false, fmt.Errorf("dial %s refused", b.url)
		})
		if err == nil || !strings.Contains(err.Error(), "b: dial b refused") {
			t.Fatalf("sweep error = %v, want the last replica's failure", err)
		}
		// 1+Retries passes over 2 replicas, a backoff before each extra pass.
		if tries != 6 || c.failovers.Load() != 6 || c.retryWaits.Load() != 2 {
			t.Fatalf("tries=%d failovers=%d retryWaits=%d, want 6, 6, 2", tries, c.failovers.Load(), c.retryWaits.Load())
		}
		for _, b := range reps {
			if b.healthy.Load() {
				t.Fatalf("replica %s still healthy after transport failures", b.url)
			}
		}
	})

	t.Run("first replica unreachable, second answers", func(t *testing.T) {
		c, reps := newFleet(true, true)
		var served string
		err := c.sweep(ctx, reps, func(b *backend) (bool, error) {
			if b == reps[0] {
				return false, errors.New("connection reset")
			}
			served = b.url
			return true, nil
		})
		if err != nil || served != "b" {
			t.Fatalf("sweep = %v, served by %q, want nil and b", err, served)
		}
		if c.failovers.Load() != 1 || c.retryWaits.Load() != 0 {
			t.Fatalf("failovers=%d retryWaits=%d, want 1 and 0", c.failovers.Load(), c.retryWaits.Load())
		}
		if reps[0].healthy.Load() || !reps[1].healthy.Load() {
			t.Fatalf("health after failover: a=%v b=%v, want a down and b up", reps[0].healthy.Load(), reps[1].healthy.Load())
		}
	})

	t.Run("alive refusal fails over without marking down", func(t *testing.T) {
		c, reps := newFleet(true, true)
		err := c.sweep(ctx, reps, func(b *backend) (bool, error) {
			if b == reps[0] {
				return true, errors.New("HTTP 503")
			}
			return true, nil
		})
		if err != nil || c.failovers.Load() != 1 || !reps[0].healthy.Load() {
			t.Fatalf("sweep = %v, failovers=%d, a healthy=%v; want nil, 1, true", err, c.failovers.Load(), reps[0].healthy.Load())
		}
	})

	t.Run("healthy replicas are tried first, in placement order", func(t *testing.T) {
		c, reps := newFleet(false, true, false, true)
		var order []string
		c.sweep(ctx, reps, func(b *backend) (bool, error) {
			order = append(order, b.url)
			return true, errors.New("refused")
		})
		if got := strings.Join(order[:4], ""); got != "bdac" {
			t.Fatalf("first pass tried %s, want bdac", got)
		}
	})

	t.Run("cancelled context stops the backoff", func(t *testing.T) {
		c, reps := newFleet(true)
		c.policy.retryBackoff = time.Hour
		cctx, cancel := context.WithCancel(ctx)
		err := c.sweep(cctx, reps, func(*backend) (bool, error) {
			cancel()
			return true, errors.New("refused")
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("sweep error = %v, want context.Canceled", err)
		}
	})

	t.Run("cancel during the backoff returns early", func(t *testing.T) {
		c, reps := newFleet(true)
		c.policy.retryBackoff = time.Hour
		cctx, cancel := context.WithCancel(ctx)
		defer cancel()
		tries := 0
		timer := time.AfterFunc(20*time.Millisecond, cancel)
		defer timer.Stop()
		start := time.Now()
		err := c.sweep(cctx, reps, func(*backend) (bool, error) {
			tries++
			return true, errors.New("refused")
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("sweep error = %v, want context.Canceled", err)
		}
		if tries != 1 || c.retryWaits.Load() != 1 || c.failovers.Load() != 1 {
			t.Fatalf("tries=%d retryWaits=%d failovers=%d, want 1, 1, 1", tries, c.retryWaits.Load(), c.failovers.Load())
		}
		if took := time.Since(start); took > 10*time.Second {
			t.Fatalf("sweep returned after %v, inside a one-hour backoff", took)
		}
	})

	t.Run("empty replica set", func(t *testing.T) {
		c, _ := newFleet()
		if err := c.sweep(ctx, nil, func(*backend) (bool, error) { return true, nil }); !errors.Is(err, errNoReplica) {
			t.Fatalf("sweep over no replicas = %v, want errNoReplica", err)
		}
	})
}
