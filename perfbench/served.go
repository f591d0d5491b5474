package main

// Served workloads: the engine runs in a child process behind the TCP
// server, and this process is the open-loop client. The run is
//
//	setup (launch → first HELLO, several launches, median)
//	warm-up (one BATCH write pass over every tenant's lines, excluded)
//	nominal steps (CPU per op and latency at the fixed nominal rate)
//	rate ladder (ascending fixed rates; highest passing step is max_ops_s)
//	verify pass and per-tenant STATS reconciliation (excluded)
//
// CPU time (set-up, and over the nominal steps) and peak RSS are those
// of the serving child.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	vcc "repro"
	"repro/internal/server"
)

// setupLaunches is how many times the server is launched to measure
// set-up; the median is reported and the last launch serves the run.
const setupLaunches = 15

// nominalShare is the share of the budget spent at the nominal rate, in
// nominalParts steps so that a step lost to host steal (below) is short.
const (
	nominalShare = 0.2
	nominalParts = 3
)

// Steps the host stole from are run again. On a shared VM the
// hypervisor at times takes 20-35% of the CPU for seconds to minutes,
// and a step measured then reads the neighbours rather than the code. A
// step whose steal share (from /proc/stat) exceeds stealLimit is
// discarded and run again, for at most stealGrace beyond the budget in
// all; once that is used up, stolen steps count as they are.
const (
	stealLimit = 0.05
	stealGrace = 10 * time.Second
)

// Latency windows: a step is cut into windows of at least winMinReqs
// requests and winMinDur, and its percentiles are the first quartile
// over its windows of the per-window percentiles. The host is shared:
// it freezes both processes for several milliseconds every few
// seconds, and at times steals 10-20% of the CPU for minutes. A
// percentile pooled over a whole step mostly measures whether such a
// freeze fell inside it; the best quarter of short windows measures
// the service itself and stays put from run to run.
const (
	winMinReqs = 500
	winMinDur  = 250 * time.Millisecond
)

// ladderMisses consecutive failing steps send the ladder back to just
// above its highest passing step. Near capacity the pass rule flips
// with host noise from step to step, and the host has slow spells of
// several seconds; climbing on through them, and again after them,
// makes the highest passing step the top of that band, not its first
// miss.
const ladderMisses = 8

// A ladder step lasts ladderStep and collects at least ladderMinReqs
// requests, whichever takes longer.
const (
	ladderStep    = time.Second
	ladderMinReqs = 1000
)

// ladderQ is the latency quantile the ladder's limit applies to. The
// p99 near capacity flips with host noise from step to step (see the
// latency windows above); the p90 turns at the capacity cliff.
const ladderQ = 0.90

// verifyRequests is the number of 16-line read-back requests per
// connection after the measured phase.
const verifyRequests = 256

// child is a running serving process.
type child struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
	addr  string
	pid   string
}

func startChild(w *Workload) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "serve", "--workload", w.Name)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	ch := &child{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout), pid: strconv.Itoa(cmd.Process.Pid)}
	line, err := ch.out.ReadString('\n')
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "READY ")
	if err != nil || !ok {
		ch.stdin.Close()
		_ = cmd.Wait()
		return nil, fmt.Errorf("serving child did not start (%q): %v", line, err)
	}
	ch.addr = addr
	return ch, nil
}

// stop closes the child's stdin and returns its final report.
func (ch *child) stop() (childReport, error) {
	ch.stdin.Close()
	var rep childReport
	var last string
	for {
		line, err := ch.out.ReadString('\n')
		if s := strings.TrimSpace(line); s != "" {
			last = s
		}
		if err != nil {
			break
		}
	}
	werr := ch.cmd.Wait()
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		return rep, fmt.Errorf("serving child report %q: %v (exit: %v)", last, err, werr)
	}
	return rep, werr
}

// phase aggregates one step over all connections. A step is split
// into consecutive windows by due time; its percentiles are the medians
// of the per-window percentiles, which keeps one host stall from
// deciding a whole step.
type phase struct {
	lat, lag    [][]float64 // per window, µs, sorted
	ops         int64
	failedOps   int64
	inflightMax int64
	backlogEnd  int64
	wall        time.Duration
}

// loadGen drives a set of connections step by step.
type loadGen struct {
	conns []*genConn
	clock func() time.Duration
	step  int
}

// run executes one step on every connection: n requests each, at
// interval spacing (0 = as fast as the window allows), split into wins
// latency windows.
func (g *loadGen) run(src source, n int, interval time.Duration, wins int) (phase, error) {
	if g.step >= maxSteps {
		return phase{}, errors.New("too many generator steps")
	}
	step := g.step
	g.step++
	start := g.clock() + time.Millisecond
	errs := make([]error, len(g.conns))
	var wg sync.WaitGroup
	for i, c := range g.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.runStep(step, src, n, start, interval)
		}()
	}
	wg.Wait()
	for _, c := range g.conns {
		c.waitStep()
	}
	ph := phase{wall: g.clock() - start, lat: make([][]float64, wins), lag: make([][]float64, wins)}
	for i, c := range g.conns {
		if errs[i] != nil {
			return ph, fmt.Errorf("tenant %d: %w", c.tenant, errs[i])
		}
		st := &c.steps[step]
		for k := 0; k < wins; k++ {
			lo, hi := k*len(st.lat)/wins, (k+1)*len(st.lat)/wins
			ph.lat[k] = append(ph.lat[k], usOf(st.lat[lo:hi])...)
			lo, hi = k*len(st.lag)/wins, (k+1)*len(st.lag)/wins
			ph.lag[k] = append(ph.lag[k], usOf(st.lag[lo:hi])...)
		}
		ph.ops += st.ops
		ph.failedOps += st.failedOps
		ph.inflightMax = max(ph.inflightMax, st.inflightMax)
		ph.backlogEnd += st.backlogEnd
	}
	for k := 0; k < wins; k++ {
		sort.Float64s(ph.lat[k])
		sort.Float64s(ph.lag[k])
	}
	return ph, nil
}

// windowed returns the first quartile over windows of the q-quantile
// of each window (see the latency windows above).
func windowed(xs [][]float64, q float64) float64 {
	v := make([]float64, 0, len(xs))
	for _, w := range xs {
		if len(w) > 0 {
			v = append(v, quantile(w, q))
		}
	}
	sort.Float64s(v)
	return quantile(v, 0.25)
}

// spreadOf summarises the per-window q-quantiles: min, quartiles, max.
func spreadOf(xs [][]float64, q float64) string {
	v := make([]float64, 0, len(xs))
	for _, w := range xs {
		if len(w) > 0 {
			v = append(v, quantile(w, q))
		}
	}
	sort.Float64s(v)
	return fmt.Sprintf("min %.0f q1 %.0f median %.0f q3 %.0f max %.0f us", quantile(v, 0), quantile(v, 0.25), quantile(v, 0.5), quantile(v, 0.75), quantile(v, 1))
}

// add appends the windows and counts of another step.
func (ph *phase) add(o phase) {
	ph.lat = append(ph.lat, o.lat...)
	ph.lag = append(ph.lag, o.lag...)
	ph.ops += o.ops
	ph.failedOps += o.failedOps
	ph.inflightMax = max(ph.inflightMax, o.inflightMax)
	ph.backlogEnd = max(ph.backlogEnd, o.backlogEnd)
	ph.wall += o.wall
}

// samples counts the requests of a phase.
func (ph phase) samples() int {
	n := 0
	for _, w := range ph.lat {
		n += len(w)
	}
	return n
}

// stats fetches every tenant's STATS and returns their sum.
func (g *loadGen) stats() (server.TenantStats, error) {
	if _, err := g.run(statsSource, 1, 0, 1); err != nil {
		return server.TenantStats{}, err
	}
	var sum server.TenantStats
	for _, c := range g.conns {
		sum.Add(c.stats)
	}
	return sum, nil
}

// totals sums acknowledged ops per connection over every step so far.
func (c *genConn) totals() (ops, reads, writes, failed int64) {
	for i := range c.steps {
		ops += c.steps[i].ops
		reads += c.steps[i].reads
		writes += c.steps[i].writes
		failed += c.steps[i].failedOps
	}
	return
}

// reconcile applies the output checks after a final STATS step: every
// read matched the shadow copy (checked by the receivers), no op
// failed, and each tenant's STATS reconcile exactly with the ops its
// connection had acknowledged.
func (g *loadGen) reconcile(w *Workload) (attempted, failed int64, ok bool) {
	ok = true
	for _, c := range g.conns {
		ops, reads, writes, bad := c.totals()
		attempted += ops
		failed += bad
		st := c.stats
		match := st.Ops == ops
		if w.CacheLines == 0 {
			match = match && st.LineWrites == writes && st.LineReads == reads
		} else {
			match = match && st.CacheHits+st.CacheMisses == reads
		}
		if !match {
			ok = false
			fmt.Printf("  tenant %d STATS do not reconcile: server %+v, client ops=%d reads=%d writes=%d\n",
				c.tenant, st, ops, reads, writes)
		}
		if msg := c.errMsg(); msg != "" {
			ok = false
			fmt.Printf("  tenant %d: %s\n", c.tenant, msg)
		}
	}
	return attempted, failed, ok && failed == 0
}

// setup is one launch of the server: the wall time from launch until
// the first HELLO is accepted, and the CPU seconds the serving child
// spent by then (process start, device init, listening).
type setup struct{ wall, cpu float64 }

// splitSetups returns the wall and CPU seconds of each launch.
func splitSetups(setups []setup) (walls, cpus []float64) {
	for _, su := range setups {
		walls = append(walls, su.wall)
		cpus = append(cpus, su.cpu)
	}
	return walls, cpus
}

// launchServer starts the child and binds the first connection.
func launchServer(w *Workload, seed uint64, clock func() time.Duration) (*child, *genConn, setup, error) {
	t := time.Now()
	ch, err := startChild(w)
	if err != nil {
		return nil, nil, setup{}, err
	}
	c, err := dialGen(ch.addr, 0, w, seed, clock)
	if err != nil {
		_, _ = ch.stop()
		return nil, nil, setup{}, err
	}
	wall := time.Since(t).Seconds()
	cpu, err := procCPUSeconds(ch.pid)
	if err != nil {
		c.close()
		_, _ = ch.stop()
		return nil, nil, setup{}, err
	}
	return ch, c, setup{wall: wall, cpu: cpu}, nil
}

// openServed launches the server launches times (measuring each), keeps
// the last one and connects every tenant.
func openServed(w *Workload, seed uint64, launches int) (*child, *loadGen, []setup, error) {
	t0 := time.Now()
	g := &loadGen{clock: func() time.Duration { return time.Since(t0) }}
	var setups []setup
	var ch *child
	for i := 0; i < launches; i++ {
		var c *genConn
		var su setup
		var err error
		ch, c, su, err = launchServer(w, seed, g.clock)
		if err != nil {
			return nil, nil, nil, err
		}
		setups = append(setups, su)
		if i < launches-1 {
			c.close()
			if _, err := ch.stop(); err != nil {
				return nil, nil, nil, err
			}
			continue
		}
		g.conns = append(g.conns, c)
	}
	for t := 1; t < w.Conns; t++ {
		c, err := dialGen(ch.addr, t, w, seed, g.clock)
		if err != nil {
			_, _ = g.close(ch)
			return nil, nil, nil, err
		}
		g.conns = append(g.conns, c)
	}
	return ch, g, setups, nil
}

// close tears down every connection and the child.
func (g *loadGen) close(ch *child) (childReport, error) {
	for _, c := range g.conns {
		c.close()
	}
	return ch.stop()
}

// warm writes every tenant line once.
func (g *loadGen) warm() error {
	n := (g.conns[0].lines + maxBatch - 1) / maxBatch
	ph, err := g.run(warmSource, n, 0, 1)
	if err == nil && ph.failedOps > 0 {
		err = fmt.Errorf("warm-up: %d ops failed", ph.failedOps)
	}
	return err
}

// rateStep runs the workload stream at opsPerSec (summed over
// connections) for d.
func (g *loadGen) rateStep(w *Workload, opsPerSec float64, d time.Duration) (phase, error) {
	reqPerSec := opsPerSec / float64(w.Batch)
	reqPerConn := reqPerSec / float64(len(g.conns))
	n := int(math.Ceil(reqPerConn * d.Seconds()))
	wins := max(1, min(int(d/winMinDur), int(reqPerSec*d.Seconds())/winMinReqs))
	return g.run(loadSource, n, time.Duration(float64(time.Second)/reqPerConn), wins)
}

// stealBudget hands out the grace for re-running stolen steps.
type stealBudget struct {
	left      time.Duration
	discarded int
	meter     func() func() float64 // startSteal, or a stand-in in tests
}

// measure runs step and reports whether to keep it: a step the host
// stole more than stealLimit from is discarded while grace is left, and
// its time charged to the grace.
func (sb *stealBudget) measure(label string, step func() (phase, error)) (phase, bool, error) {
	steal := sb.meter()
	ph, err := step()
	st := steal()
	if err != nil || st <= stealLimit || ph.wall > sb.left {
		return ph, true, err
	}
	sb.left -= ph.wall
	sb.discarded++
	fmt.Printf("  %s: discarded, host steal %.3f over the step\n", label, st)
	return ph, false, nil
}

// passes applies the ladder rule to one step: the windowed ladderQ
// quantiles of latency and of generator lag within the limit (the lag
// bounds how long a full window held the generator back), no failed
// op, and no growing backlog: when the schedule ended no more requests
// were outstanding than the rate sustains at the limit (Little's law).
func passes(w *Workload, ph phase, opsPerSec float64) bool {
	limit := w.LatencyLimitUS
	allowed := int64(math.Ceil(opsPerSec/float64(w.Batch)*limit/1e6)) + 2
	return ph.failedOps == 0 && windowed(ph.lat, ladderQ) <= limit &&
		windowed(ph.lag, ladderQ) <= limit && ph.backlogEnd <= allowed
}

func runServed(w *Workload, seed uint64, budget time.Duration) (result, error) {
	var res result
	ch, g, setups, err := openServed(w, seed, setupLaunches)
	if err != nil {
		return res, err
	}
	fail := func(err error) (result, error) {
		_, _ = g.close(ch)
		return res, err
	}
	if err := g.warm(); err != nil {
		return fail(err)
	}
	before, err := g.stats()
	if err != nil {
		return fail(err)
	}
	deadline := g.clock() + budget

	sb := &stealBudget{left: stealGrace, meter: startSteal}

	// Nominal rate: latency and the serving child's CPU per op at a
	// fixed offered load.
	var nom phase
	var nomCPU float64
	for k := 0; k < nominalParts; {
		var stepCPU float64
		ph, keep, err := sb.measure(fmt.Sprintf("nominal %d", k), func() (phase, error) {
			cpu0, err := procCPUSeconds(ch.pid)
			if err != nil {
				return phase{}, err
			}
			ph, err := g.rateStep(w, w.NominalOpsS, time.Duration(nominalShare*float64(budget)/nominalParts))
			cpu1, cerr := procCPUSeconds(ch.pid)
			stepCPU = cpu1 - cpu0
			return ph, errors.Join(err, cerr)
		})
		if err != nil {
			return fail(err)
		}
		if keep {
			nom.add(ph)
			nomCPU += stepCPU
			k++
			fmt.Printf("  nominal %d: cpu %.2f us/op over %d ops\n", k, stepCPU*1e6/float64(ph.ops), ph.ops)
		}
	}
	p50, p90, p99 := windowed(nom.lat, 0.50), windowed(nom.lat, 0.90), windowed(nom.lat, 0.99)
	fmt.Printf("  nominal %6.0f ops/s: n=%d in %d windows p50=%.1fus p90=%.1fus p99=%.1fus lag_p99=%.1fus inflight_max=%d failed=%d\n",
		w.NominalOpsS, nom.samples(), len(nom.lat), p50, p90, p99, windowed(nom.lag, 0.99), nom.inflightMax, nom.failedOps)
	fmt.Printf("    window p99s: %s\n", spreadOf(nom.lat, 0.99))

	// Rate ladder, ascending, for the rest of the budget; after
	// ladderMisses consecutive failures it climbs again from just above
	// the highest passing step.
	maxOps, best, misses := 0.0, -1, 0
	for i := 0; i < len(w.LadderOpsS); i++ {
		rate := w.LadderOpsS[i]
		// Every step collects at least ladderMinReqs requests.
		d := max(ladderStep, time.Duration(ladderMinReqs/(rate/float64(w.Batch))*float64(time.Second)))
		// Discarded steps move the deadline by the time they took.
		if g.clock()+d > deadline+stealGrace-sb.left {
			break
		}
		ph, keep, err := sb.measure(fmt.Sprintf("ladder  %6.0f ops/s", rate), func() (phase, error) {
			return g.rateStep(w, rate, d)
		})
		if err != nil {
			return fail(err)
		}
		if !keep {
			i--
			continue
		}
		ok := passes(w, ph, rate)
		if ok && i > best {
			maxOps, best = rate, i
		}
		if ok {
			misses = 0
		} else {
			misses++
		}
		fmt.Printf("  ladder  %6.0f ops/s: n=%d p50=%.1fus p99=%.1fus lag_p99=%.1fus backlog_end=%d failed=%d pass=%v\n",
			rate, ph.samples(), windowed(ph.lat, 0.5), windowed(ph.lat, 0.99), windowed(ph.lag, 0.99), ph.backlogEnd, ph.failedOps, ok)
		if misses == ladderMisses {
			// Climb again from just above the highest passing step: a
			// slow spell of the host may have failed the steps since.
			i, misses = best, 0
		}
	}

	after, err := g.stats()
	if err != nil {
		return fail(err)
	}
	if _, err := g.run(verifySource, verifyRequests, 0, 1); err != nil {
		return fail(err)
	}
	if _, err := g.stats(); err != nil {
		return fail(err)
	}
	rss, err := procPeakRSSMB(ch.pid)
	if err != nil {
		return fail(err)
	}

	res.Attempted, res.Failed, res.Correct = g.reconcile(w)
	rep, err := g.close(ch)
	if err != nil {
		return res, err
	}
	if rep.BusyResponses != 0 || rep.DeviceErrorResponses != 0 {
		res.Correct = false
		fmt.Printf("  server answered busy=%d device-error=%d\n", rep.BusyResponses, rep.DeviceErrorResponses)
	}

	d := deltaStats(tenantStats(after), tenantStats(before))
	printExactStats("measured window", d)
	walls, cpus := splitSetups(setups)
	fmt.Printf("  setup launches: wall %v s; cpu %v s\n", walls, cpus)
	fmt.Printf("  steps discarded for host steal: %d (grace left %v)\n", sb.discarded, sb.left)
	notGated("p50_us", p50, "us", fmt.Sprintf("p90 %.1f us, p99 %.1f us: first quartiles over %d nominal windows, %d requests in all", p90, p99, len(nom.lat), nom.samples()))
	notGated("max_ops_s", maxOps, "ops/s", "highest passing ladder step")
	notGated("ops_s", float64(nom.ops)/nom.wall.Seconds(), "ops/s", "ops completed per second at the nominal rate")
	res.set("setup_s", median(cpus), "s")
	res.set("cpu_us_per_op", nomCPU*1e6/float64(nom.ops), "us")
	res.set("energy_pj_per_write", d.EnergyPJ/float64(d.LineWrites), "pJ")
	res.set("bitflips_per_write", float64(d.BitFlips)/float64(d.LineWrites), "count")
	res.set("rss_mb", rss, "MiB")
	fmt.Printf("  saw_per_kwrite=%g fail_frac=%g\n", 1000*float64(d.SAWCells)/float64(d.LineWrites),
		float64(res.Failed)/float64(max(res.Attempted, 1)))
	return res, nil
}

// tenantStats converts a tenant's wire statistics to engine statistics.
func tenantStats(t server.TenantStats) vcc.Stats {
	return vcc.Stats{
		LineWrites:  t.LineWrites,
		LineReads:   t.LineReads,
		SAWCells:    t.SAWCells,
		BitFlips:    t.BitFlips,
		CellChanges: t.CellChanges,
		CacheHits:   t.CacheHits,
		CacheMisses: t.CacheMisses,
		EnergyPJ:    t.EnergyPJ,
	}
}
