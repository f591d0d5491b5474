// Command perfbench is the repository benchmark: it runs one named
// workload against the real VCC stack and prints every metric by name
// with its unit, ending with one JSON result line.
//
//	perfbench --workload write-cold --seed 1 --seconds 20 --trace 0
//
// Workloads are defined in workloads.json (embedded). write-cold and
// read-hot are served over loopback TCP by a child process built from
// the same binary (perfbench serve ...), driven by an open-loop
// pipelined generator; replay-faulty drives ShardedMemory.Apply
// in-process in a closed loop. --trace 0 reports the end-to-end metrics
// of an untraced run; --trace 1 runs the per-layer rungs instead (see
// trace.go). Inputs are generated from --seed only.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	vcc "repro"
)

// engineSeed is the engine's master seed (device init, fault maps). It
// is part of the system under test, not of its inputs, so it is fixed.
const engineSeed = 1

// watchdogSlack is how long a run may take beyond its --seconds budget
// (set-up, warm-up, verify pass) before it is abandoned.
const watchdogSlack = 120 * time.Second

//go:embed workloads.json
var workloadsJSON []byte

// Workload is one entry of workloads.json.
type Workload struct {
	Name             string    `json:"-"`
	Why              string    `json:"why"`
	Loop             string    `json:"loop"`
	Conns            int       `json:"conns"`
	Lines            int       `json:"lines"`
	Shards           int       `json:"shards"`
	Encoder          string    `json:"encoder"`
	Objective        string    `json:"objective"`
	FaultRate        float64   `json:"fault_rate"`
	UseFaultRepo     bool      `json:"use_fault_repo"`
	RemapSpares      int       `json:"remap_spares_per_shard"`
	CacheLines       int       `json:"cache_lines_per_shard"`
	CachePolicy      string    `json:"cache_policy"`
	FootprintVsCache string    `json:"footprint_vs_cache"`
	Mix              string    `json:"mix"`
	ZipfSkew         float64   `json:"zipf_skew"`
	ReadFrac         float64   `json:"read_frac"`
	Batch            int       `json:"batch"`
	Warmup           string    `json:"warmup"`
	LatencyLimitUS   float64   `json:"latency_limit_us"`
	NominalOpsS      float64   `json:"nominal_ops_s"`
	LadderOpsS       []float64 `json:"ladder_ops_s"`
}

// served reports whether the workload runs over the network server.
func (w *Workload) served() bool { return w.Loop == "open" }

// tenants is the number of tenants the footprint is split into: one per
// connection, each connection bound to its own (one for the closed loop).
func (w *Workload) tenants() int { return max(w.Conns, 1) }

func loadWorkload(name string) (*Workload, error) {
	all := map[string]*Workload{}
	if err := json.Unmarshal(workloadsJSON, &all); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	w, ok := all[name]
	if !ok {
		names := make([]string, 0, len(all))
		for n := range all {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
	}
	w.Name = name
	return w, nil
}

// newEncoder returns the workload's per-shard codec factory.
func newEncoder(w *Workload) (func() vcc.Encoder, error) {
	switch w.Encoder {
	case "vcc-stored-256":
		return func() vcc.Encoder { return vcc.NewVCCEncoder(256) }, nil
	case "vcc-gen-256":
		return func() vcc.Encoder { return vcc.NewVCCGeneratedEncoder(256) }, nil
	}
	return nil, fmt.Errorf("workload %s: unknown encoder %q", w.Name, w.Encoder)
}

// memConfig is the engine configuration of a workload.
func memConfig(w *Workload) (vcc.ShardedMemoryConfig, error) {
	newEnc, err := newEncoder(w)
	if err != nil {
		return vcc.ShardedMemoryConfig{}, err
	}
	cfg := vcc.ShardedMemoryConfig{
		Lines:        w.Lines,
		Shards:       w.Shards,
		NewEncoder:   newEnc,
		FaultRate:    w.FaultRate,
		UseFaultRepo: w.UseFaultRepo,
		RemapSpares:  w.RemapSpares,
		Seed:         engineSeed,
	}
	switch w.Objective {
	case "flips":
		cfg.Objective = vcc.OptFlips
	case "saw":
		cfg.Objective = vcc.OptSAW
	default:
		return cfg, fmt.Errorf("workload %s: unknown objective %q", w.Name, w.Objective)
	}
	switch w.CachePolicy {
	case "none":
	case "wt":
		cfg.CacheLines, cfg.CachePolicy = w.CacheLines, vcc.WriteThrough
	case "wb":
		cfg.CacheLines, cfg.CachePolicy = w.CacheLines, vcc.WriteBack
	default:
		return cfg, fmt.Errorf("workload %s: unknown cache policy %q", w.Name, w.CachePolicy)
	}
	return cfg, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// notGated prints a wall-clock figure that the run measures but does
// not report: on a shared host it moves with the neighbours' load from
// run to run (see README.md).
func notGated(name string, v float64, unit, how string) {
	fmt.Printf("  not gated: %s = %.6g %s (%s)\n", name, v, unit, how)
}

// quantile returns the q-quantile (nearest rank) of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median sorts a copy of xs and returns its middle value.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func usOf(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, v := range d {
		out[i] = float64(v) / 1e3
	}
	sort.Float64s(out)
	return out
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := serveMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench serve:", err)
			os.Exit(1)
		}
		return
	}
	var (
		name    = flag.String("workload", "", "workload name from workloads.json")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 20, "measurement budget in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer traced rungs")
	)
	flag.Parse()
	// A hung run must still end in time: exiting closes the serving
	// child's stdin, which stops it.
	time.AfterFunc(time.Duration(*seconds)*time.Second+watchdogSlack, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run did not finish in time")
		os.Exit(2)
	})
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds, trace int) error {
	if seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	w, err := loadWorkload(name)
	if err != nil {
		return err
	}
	budget := time.Duration(seconds) * time.Second
	steal := startSteal()
	fmt.Printf("workload %s seed %d seconds %d trace %d: nproc=%d GOMAXPROCS=%d\n",
		w.Name, seed, seconds, trace, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Printf("  why: %s\n  loop=%s conns=%d footprint: %s; nominal=%g ops/s latency limit=%gus ladder=%v ops/s\n",
		w.Why, w.Loop, w.Conns, w.FootprintVsCache, w.NominalOpsS, w.LatencyLimitUS, w.LadderOpsS)
	var res result
	switch {
	case trace == 1:
		res, err = runTraced(w, seed, budget)
	case w.served():
		res, err = runServed(w, seed, budget)
	default:
		res, err = runReplay(w, seed, budget)
	}
	if err != nil {
		return err
	}
	st := steal()
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d host.steal_frac=%.5f\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), st)
	if trace == 1 {
		res.set("host.steal_frac", st, "frac")
		res.set("host.nproc", float64(runtime.NumCPU()), "count")
		res.set("host.gomaxprocs", float64(runtime.GOMAXPROCS(0)), "count")
	}
	names := make([]string, 0, len(res.Metrics))
	for n, v := range res.Metrics {
		names = append(names, n)
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			// JSON has no NaN; a metric with nothing to measure is a
			// failed run, not a number.
			fmt.Printf("  %s has no value (%v)\n", n, v.Value)
			res.Correct = false
			res.set(n, 0, v.Unit)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-32s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Printf("correct=%v attempted=%d failed=%d fail_frac=%g\n",
		res.Correct, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
