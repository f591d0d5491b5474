package main

// replay-faulty: the paper's VCC + fault-tolerance configuration driven
// in-process through ShardedMemory.Apply by one closed-loop goroutine,
// the library path that tracegen -replay and vccrepro use.

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	vcc "repro"
	"repro/internal/shard"
	"repro/internal/workload"
)

// replayWindow is the window replay latencies and rates are taken over.
const replayWindow = time.Second

// setupBuilds is how many times the replay engine is built to measure
// set-up; the median is reported and the last build serves the run.
const setupBuilds = 25

// replayer owns the op stream and the shadow copy of one replay.
type replayer struct {
	seed   uint64
	stream *workload.Stream
	ops    []vcc.Op
	out    []vcc.Outcome
	want   []byte
	// ver[l] is the version last written to line l (0 = never), and
	// sawLast[l] reports that its last write stored stuck-at-wrong
	// cells: that line's data is modelled as lost and exempt from read
	// checks until it is written again.
	ver     []uint32
	sawLast []bool
	expect  []uint32 // expected version per op of the current batch

	reads, checked, exempt, wrong, failed int64
}

func newReplayer(w *Workload, seed uint64) (*replayer, error) {
	stream, err := opStream(w, seed, 0, w.Lines)
	if err != nil {
		return nil, err
	}
	r := &replayer{
		seed:    seed,
		stream:  stream,
		ops:     make([]vcc.Op, w.Batch),
		out:     make([]vcc.Outcome, w.Batch),
		want:    make([]byte, shard.LineSize),
		ver:     make([]uint32, w.Lines),
		sawLast: make([]bool, w.Lines),
		expect:  make([]uint32, w.Batch),
	}
	for i := range r.ops {
		r.ops[i].Data = make([]byte, shard.LineSize)
	}
	return r, nil
}

// next fills the next batch and advances the shadow copy.
func (r *replayer) next() []vcc.Op {
	for i := range r.ops {
		op := &r.ops[i]
		line, read := r.stream.Next()
		op.Line = int(line)
		if read {
			op.Kind = vcc.OpRead
		} else {
			op.Kind = vcc.OpWrite
			r.ver[line]++
			fillLine(op.Data, r.seed, 0, line, r.ver[line])
		}
		r.expect[i] = r.ver[line]
	}
	return r.ops
}

// check validates a batch's outcomes in op order (same-line ops are
// applied in slice order, so this order is the order of effect).
func (r *replayer) check(out []vcc.Outcome) {
	for i := range r.ops {
		op, o := &r.ops[i], &out[i]
		if o.Err != nil {
			r.failed++
			continue
		}
		if op.Kind == vcc.OpWrite {
			r.sawLast[op.Line] = o.SAWCells > 0
			continue
		}
		r.reads++
		if r.expect[i] == 0 || r.sawLast[op.Line] {
			r.exempt++
			continue
		}
		r.checked++
		fillLine(r.want, r.seed, 0, uint64(op.Line), r.expect[i])
		if string(o.Data) != string(r.want) {
			r.wrong++
		}
	}
}

// buildTimed builds the engine setupBuilds times, measuring the wall
// time and the process's CPU seconds of each NewShardedMemory, and keeps
// the last.
func buildTimed(cfg vcc.ShardedMemoryConfig) (*vcc.ShardedMemory, []setup, error) {
	var setups []setup
	var mem *vcc.ShardedMemory
	for i := 0; i < setupBuilds; i++ {
		if mem != nil {
			mem.Close()
			mem = nil
			runtime.GC()
		}
		cpu0, err := procCPUSeconds("self")
		if err != nil {
			return nil, nil, err
		}
		t := time.Now()
		m, err := vcc.NewShardedMemory(cfg)
		if err != nil {
			return nil, nil, err
		}
		wall := time.Since(t).Seconds()
		cpu1, err := procCPUSeconds("self")
		if err != nil {
			m.Close()
			return nil, nil, err
		}
		setups = append(setups, setup{wall: wall, cpu: cpu1 - cpu0})
		mem = m
	}
	return mem, setups, nil
}

func runReplay(w *Workload, seed uint64, budget time.Duration) (result, error) {
	var res result
	cfg, err := memConfig(w)
	if err != nil {
		return res, err
	}
	mem, setups, err := buildTimed(cfg)
	if err != nil {
		return res, err
	}
	defer mem.Close()
	r, err := newReplayer(w, seed)
	if err != nil {
		return res, err
	}
	before := mem.Stats()
	cpu0, err := procCPUSeconds("self")
	if err != nil {
		return res, err
	}
	// Per-window Apply latencies and throughputs; reported are the best
	// quarter of windows, as for the served workloads (served.go).
	var lat [][]float64
	var winOps []float64
	var ops int64
	t0 := time.Now()
	for time.Since(t0) < budget {
		win := int(time.Since(t0) / replayWindow)
		for len(lat) <= win {
			lat = append(lat, nil)
			winOps = append(winOps, 0)
		}
		batch := r.next()
		t := time.Now()
		out, err := mem.Apply(batch, r.out)
		if err != nil {
			return res, err
		}
		lat[win] = append(lat[win], float64(time.Since(t))/1e3)
		r.check(out)
		ops += int64(len(batch))
		winOps[win] += float64(len(batch))
	}
	cpu1, err := procCPUSeconds("self")
	if err != nil {
		return res, err
	}
	after := mem.Stats()
	rss, err := procPeakRSSMB("self")
	if err != nil {
		return res, err
	}
	d := deltaStats(after, before)
	for _, l := range lat {
		sort.Float64s(l)
	}
	// The last window is partial; throughput counts whole windows only.
	rates := make([]float64, 0, len(winOps))
	for _, n := range winOps[:max(len(winOps)-1, 1)] {
		rates = append(rates, n/replayWindow.Seconds())
	}
	sort.Float64s(rates)
	opsPerSec := quantile(rates, 0.75)

	res.Attempted = ops
	res.Failed = r.failed + r.wrong
	res.Correct = res.Failed == 0
	fmt.Printf("  reads: %d, checked %d, exempt %d (never written or last write stored SAW cells), wrong %d; device errors %d\n",
		r.reads, r.checked, r.exempt, r.wrong, r.failed)
	printExactStats("measured window", d)
	fmt.Printf("  remap: spares left %d of %d; fault repo %+v\n", mem.SpareLinesLeft(), w.RemapSpares*w.Shards, mem.FaultRepoStats())
	walls, cpus := splitSetups(setups)
	fmt.Printf("  setup builds: wall %v s; cpu %v s\n", walls, cpus)
	notGated("p50_us", windowed(lat, 0.5), "us", fmt.Sprintf("p90 %.1f us, p99 %.1f us: first quartiles over %d windows of %v of Apply batches of %d ops",
		windowed(lat, 0.90), windowed(lat, 0.99), len(lat), replayWindow, w.Batch))
	notGated("ops_s", opsPerSec, "ops/s", fmt.Sprintf("third quartile of the windows' rates, mean %.0f; max_ops_s is the same figure", float64(ops)/budget.Seconds()))
	if mem.SpareLinesLeft() == 0 {
		fmt.Println("  spare pool exhausted: the run measured repair failures")
	}
	res.set("setup_s", median(cpus), "s")
	res.set("cpu_us_per_op", (cpu1-cpu0)*1e6/float64(ops), "us")
	res.set("energy_pj_per_write", d.EnergyPJ/float64(d.LineWrites), "pJ")
	res.set("bitflips_per_write", float64(d.BitFlips)/float64(d.LineWrites), "count")
	res.set("rss_mb", rss, "MiB")
	fmt.Printf("  saw_per_kwrite=%g fail_frac=%g\n", 1000*float64(d.SAWCells)/float64(d.LineWrites),
		float64(res.Failed)/float64(max(res.Attempted, 1)))
	return res, nil
}

// deltaStats returns the simulated counters accumulated between two
// engine snapshots.
func deltaStats(a, b vcc.Stats) vcc.Stats {
	return vcc.Stats{
		LineWrites:      a.LineWrites - b.LineWrites,
		LineReads:       a.LineReads - b.LineReads,
		EnergyPJ:        a.EnergyPJ - b.EnergyPJ,
		BitFlips:        a.BitFlips - b.BitFlips,
		CellChanges:     a.CellChanges - b.CellChanges,
		SAWCells:        a.SAWCells - b.SAWCells,
		CacheHits:       a.CacheHits - b.CacheHits,
		CacheMisses:     a.CacheMisses - b.CacheMisses,
		CacheEvictions:  a.CacheEvictions - b.CacheEvictions,
		Writebacks:      a.Writebacks - b.Writebacks,
		CoalescedWrites: a.CoalescedWrites - b.CoalescedWrites,
		RemappedLines:   a.RemappedLines - b.RemappedLines,
		RepairFailures:  a.RepairFailures - b.RepairFailures,
		DeviceErrors:    a.DeviceErrors - b.DeviceErrors,
		ErrorRetries:    a.ErrorRetries - b.ErrorRetries,
	}
}

// printExactStats prints the simulated statistics as exact counts beside
// their per-write ratios, so any change to a simulated number shows.
func printExactStats(label string, s vcc.Stats) {
	fmt.Printf("  exact %s: energy_pj=%.6f bit_flips=%d cell_changes=%d saw_cells=%d line_writes=%d line_reads=%d cache_hits=%d cache_misses=%d remapped=%d repair_failures=%d\n",
		label, s.EnergyPJ, s.BitFlips, s.CellChanges, s.SAWCells, s.LineWrites, s.LineReads, s.CacheHits, s.CacheMisses, s.RemappedLines, s.RepairFailures)
	if s.LineWrites > 0 {
		fmt.Printf("  ratios %s: energy_pj_per_write=%.4f bitflips_per_write=%.4f saw_per_kwrite=%.4f hit_rate=%.4f\n",
			label, s.EnergyPJ/float64(s.LineWrites), float64(s.BitFlips)/float64(s.LineWrites),
			1000*float64(s.SAWCells)/float64(s.LineWrites), float64(s.CacheHits)/float64(max(s.CacheHits+s.CacheMisses, 1)))
	}
}
