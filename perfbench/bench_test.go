package main

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	vcc "repro"
	"repro/internal/coset"
	"repro/internal/server"
)

// tiny returns a workload shrunk to a test-sized footprint.
func tiny(t *testing.T, name string) *Workload {
	t.Helper()
	w, err := loadWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w.Lines = 2048
	if w.CacheLines > 0 {
		w.CacheLines = 64
	}
	if w.RemapSpares > 0 {
		w.RemapSpares = 128
	}
	return w
}

// startServer serves w's engine in-process and returns its address.
func startServer(t *testing.T, w *Workload) string {
	t.Helper()
	cfg, err := memConfig(w)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := vcc.NewShardedMemory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Mem: mem, Tenants: w.tenants()})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Serve(l)
	}()
	t.Cleanup(func() {
		_ = srv.Stop()
		wg.Wait()
		mem.Close()
	})
	return l.Addr().String()
}

// TestGeneratorChecks drives both served workloads through warm-up, an
// open-loop step and a verify pass, then requires clean output checks
// and exact STATS reconciliation; a lost write must then be caught.
func TestGeneratorChecks(t *testing.T) {
	for _, name := range []string{"write-cold", "read-hot"} {
		t.Run(name, func(t *testing.T) {
			w := tiny(t, name)
			addr := startServer(t, w)
			t0 := time.Now()
			g := &loadGen{clock: func() time.Duration { return time.Since(t0) }}
			for tenant := 0; tenant < w.Conns; tenant++ {
				c, err := dialGen(addr, tenant, w, 7, g.clock)
				if err != nil {
					t.Fatal(err)
				}
				g.conns = append(g.conns, c)
			}
			defer func() {
				for _, c := range g.conns {
					c.close()
				}
			}()
			if err := g.warm(); err != nil {
				t.Fatal(err)
			}
			ph, err := g.rateStep(w, 4000, 250*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if ph.samples() == 0 || ph.failedOps != 0 {
				t.Fatalf("step: %d samples, %d failed ops", ph.samples(), ph.failedOps)
			}
			if _, err := g.run(verifySource, 32, 0, 1); err != nil {
				t.Fatal(err)
			}
			if _, err := g.stats(); err != nil {
				t.Fatal(err)
			}
			if attempted, failed, ok := g.reconcile(w); !ok || attempted == 0 || failed != 0 {
				t.Fatalf("reconcile: attempted %d failed %d ok %v", attempted, failed, ok)
			}

			// Pretend a write to every line was acknowledged but lost:
			// the verify pass must report wrong reads.
			c := g.conns[0]
			for l := range c.ver {
				c.ver[l]++
			}
			if _, err := g.run(verifySource, 4, 0, 1); err != nil {
				t.Fatal(err)
			}
			if _, failed, ok := g.reconcile(w); ok || failed == 0 {
				t.Fatal("a lost write went unnoticed")
			}
		})
	}
}

// TestWrapCodecForwardsExactly checks that the span wrapper adds no
// fast path a codec lacks and drops none it has.
func TestWrapCodecForwardsExactly(t *testing.T) {
	rec := newRecorder("test", time.Now())
	for _, c := range []coset.Codec{
		vcc.NewVCCEncoder(256), vcc.NewVCCGeneratedEncoder(256), vcc.NewRCCEncoder(256),
		vcc.NewFNWEncoder(16), vcc.NewFlipcyEncoder(), vcc.NewUnencoded(),
	} {
		w := wrapCodec(c, rec)
		_, f1 := c.(coset.FastCodec)
		_, f2 := w.(coset.FastCodec)
		_, d1 := c.(coset.LineDecoder)
		_, d2 := w.(coset.LineDecoder)
		if f1 != f2 || d1 != d2 {
			t.Errorf("%s: FastCodec %v->%v LineDecoder %v->%v", c.Name(), f1, f2, d1, d2)
		}
	}
}

// TestFidelity replays each workload's op stream through the traced
// one-shard stack and ShardedMemory: simulated statistics must match.
func TestFidelity(t *testing.T) {
	for _, name := range []string{"write-cold", "read-hot", "replay-faulty"} {
		t.Run(name, func(t *testing.T) {
			w := tiny(t, name)
			reqs, err := makeRequests(w, 3, 4000/w.Batch)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkFidelity(w, reqs); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSelfTimes checks span nesting and self time on a traced stack.
func TestSelfTimes(t *testing.T) {
	w := tiny(t, "replay-faulty")
	reqs, err := makeRequests(w, 5, 40)
	if err != nil {
		t.Fatal(err)
	}
	st, err := newStack(w, w.Shards, newRecorder("test", time.Now()), true)
	if err != nil {
		t.Fatal(err)
	}
	if err := interleave(reqs, time.Second, time.Now(), []*rung{stackRung("test", st, nil)}); err != nil {
		t.Fatal(err)
	}
	sr := &stackRun{rec: st.rec, stats: st.stats()}
	sr.analyse(w.Shards, 0)
	for i, s := range sr.rec.spans {
		if s.end < s.start {
			t.Fatalf("span %d ends before it starts", i)
		}
		if p := s.parent; p >= 0 {
			ps := sr.rec.spans[p]
			if s.start < ps.start || s.end > ps.end || s.req != ps.req {
				t.Fatalf("span %d (%s) escapes its parent %d (%s)", i, layerNames[s.layer], p, layerNames[ps.layer])
			}
		} else if s.layer != lBackend {
			t.Fatalf("root span %d is %s, want %s", i, layerNames[s.layer], layerNames[lBackend])
		}
	}
	for l := lBackend; l < nLayers; l++ {
		for k := 0; k < 2; k++ {
			if sr.self[l][k] < 0 || sr.self[l][k] > sr.total[l][k] {
				t.Errorf("%s: self %v outside [0, total %v]", layerNames[l], sr.self[l][k], sr.total[l][k])
			}
		}
	}
	if sr.words[lEncode] == 0 || sr.count[lCtrl][1] == 0 || sr.count[lCache][0] == 0 || sr.count[lRemap][1] == 0 {
		t.Fatalf("missing spans: encode words %d, controller writes %d, cache reads %d, remap writes %d",
			sr.words[lEncode], sr.count[lCtrl][1], sr.count[lCache][0], sr.count[lRemap][1])
	}
}

// TestCheckSelfTimes requires the self-time check to fail once the rows
// stray from the request time by more than the trace overhead.
func TestCheckSelfTimes(t *testing.T) {
	for _, c := range []struct {
		sum, req, overhead float64
		ok                 bool
	}{
		{sum: 105, req: 100, overhead: 0.10, ok: true},
		{sum: 95, req: 100, overhead: 0.10, ok: true},
		{sum: 115, req: 100, overhead: 0.10, ok: false},
		{sum: 80, req: 100, overhead: 0.10, ok: false},
		{sum: 101, req: 100, overhead: 0, ok: false},
		{sum: 0, req: 0, overhead: 0.10, ok: false},
	} {
		if err := checkSelfTimes(c.sum, c.req, c.overhead); (err == nil) != c.ok {
			t.Errorf("checkSelfTimes(%v, %v, %v) = %v, want ok=%v", c.sum, c.req, c.overhead, err, c.ok)
		}
	}
}

// TestServerRung drives each served workload's requests through the
// depth-1 rung and requires every round trip to succeed.
func TestServerRung(t *testing.T) {
	for _, name := range []string{"write-cold", "read-hot"} {
		t.Run(name, func(t *testing.T) {
			w := tiny(t, name)
			reqs, err := makeRequests(w, 9, 200)
			if err != nil {
				t.Fatal(err)
			}
			g, sr, closeSrv, err := serverRung(w)
			if err != nil {
				t.Fatal(err)
			}
			defer closeSrv()
			if err := interleave(reqs, time.Second, time.Now(), []*rung{g}); err != nil {
				t.Fatal(err)
			}
			if len(sr.kinds) != len(g.durs) || len(g.durs) < 10 {
				t.Fatalf("%d request kinds for %d round trips", len(sr.kinds), len(g.durs))
			}
			if sr.busy() != 0 || sr.devErr() != 0 {
				t.Fatalf("busy=%d device-error=%d", sr.busy(), sr.devErr())
			}
		})
	}
}

// TestStealBudget requires stolen steps to be discarded while grace is
// left, and kept once it is used up.
func TestStealBudget(t *testing.T) {
	steal := 0.2
	sb := &stealBudget{left: 2500 * time.Millisecond, meter: func() func() float64 {
		return func() float64 { return steal }
	}}
	step := func() (phase, error) { return phase{wall: time.Second}, nil }
	var kept []bool
	for i := 0; i < 4; i++ {
		_, keep, err := sb.measure("step", step)
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, keep)
	}
	if want := []bool{false, false, true, true}; !slices.Equal(kept, want) {
		t.Fatalf("kept %v, want %v", kept, want)
	}
	if sb.discarded != 2 || sb.left != 500*time.Millisecond {
		t.Fatalf("discarded %d, grace left %v", sb.discarded, sb.left)
	}
	steal = stealLimit
	sb.left = stealGrace
	if _, keep, _ := sb.measure("step", step); !keep {
		t.Fatal("a step at the steal limit was discarded")
	}
}

// TestServedOnlyUnits requires the units replay-faulty's traced run
// gives the served-only metrics to be those of BENCHMARK.json.
func TestServedOnlyUnits(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside perfbench:", err)
	}
	var m struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	for _, p := range m.PerLayer {
		units[p.Name] = p.Unit
	}
	for k, unit := range servedOnly {
		if u, ok := units[k]; !ok || u != unit {
			t.Errorf("%s: unit %q, BENCHMARK.json has %q (listed %v)", k, unit, u, ok)
		}
	}
}
