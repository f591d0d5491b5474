package main

// Traced run (--trace 1): per-layer numbers, timed only from code in
// this package around the public entry points of each layer. The same
// seeded request sequence runs through rungs, each a fresh stack:
//
//	apply     ShardedMemory.Apply per request, untraced
//	stack     the shard stack assembled here from shard.NewBackend's
//	          controller, memctrl.NewRemapper and linecache.New, with a
//	          span decorator around every LineStore, a span wrapper
//	          around the codec, and a span per Backend op; ops dispatched
//	          serially in request order
//	nocrypt   the stack rung with encryption disabled (crypt cost is the
//	          controller's self time with minus without it)
//	plain     the same stack untraced (trace_overhead is stack vs plain)
//	server    depth-1 round trips through an in-process server
//
// Served workloads also run a short loaded phase against the serving
// child at the nominal rate for the generator and server counters. A
// fidelity check replays one op stream through the traced stack and an
// untraced one-shard ShardedMemory and requires identical simulated
// statistics. Spans are kept in memory and written to
// .bench_build/spans/ at the end.

import (
	"bufio"
	"compress/gzip"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	vcc "repro"
	"repro/internal/coset"
	"repro/internal/linecache"
	"repro/internal/memctrl"
	"repro/internal/server"
	"repro/internal/shard"
)

// layer identifies a span's layer.
type layer uint8

const (
	lRequest layer = iota // client round trip through the server
	lApply                // ShardedMemory.Apply
	lBackend              // shard.Backend.WriteLine / ReadLine
	lCache                // linecache.Cache
	lRemap                // memctrl.Remapper
	lCtrl                 // memctrl.Controller
	lEncode               // coset encode (EncodeSliced or Encode)
	lDecode               // coset decode (DecodeWords or Decode)
	nLayers
)

var layerNames = [nLayers]string{"request", "apply", "shard.backend", "linecache", "memctrl.remap", "memctrl", "coset.encode", "coset.decode"}

// span is one timed call.
type span struct {
	start, end int64 // ns since the recorder's epoch
	parent     int32 // enclosing span, -1 at the root
	req        int32 // request id
	layer      layer
	write      bool
	shard      int8
	words      uint8 // words covered by a codec span
}

// recorder collects the spans of one rung. Spans nest on one goroutine:
// the rungs that record below the request level dispatch serially.
type recorder struct {
	rung  string
	epoch time.Time
	spans []span
	open  []int32
	req   int32
	shard int8
}

func newRecorder(rung string, epoch time.Time) *recorder {
	return &recorder{rung: rung, epoch: epoch, spans: make([]span, 0, 1<<16)}
}

func (r *recorder) begin(l layer, write bool) int32 {
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	i := int32(len(r.spans))
	r.spans = append(r.spans, span{start: int64(time.Since(r.epoch)), parent: parent, req: r.req, layer: l, write: write, shard: r.shard})
	r.open = append(r.open, i)
	return i
}

func (r *recorder) end(i int32, words int) {
	r.spans[i].end = int64(time.Since(r.epoch))
	r.spans[i].words = uint8(words)
	r.open = r.open[:len(r.open)-1]
}

// tracedCodec times Encode and Decode of the wrapped codec. wrapCodec
// adds EncodeSliced and DecodeWords exactly when the wrapped codec has
// them, so the controller takes the same code paths traced or not.
type tracedCodec struct {
	coset.Codec
	rec *recorder
}

func (c *tracedCodec) Encode(data uint64, ev *coset.Evaluator) (uint64, uint64) {
	i := c.rec.begin(lEncode, true)
	enc, aux := c.Codec.Encode(data, ev)
	c.rec.end(i, 1)
	return enc, aux
}

func (c *tracedCodec) Decode(enc, aux, left uint64) uint64 {
	i := c.rec.begin(lDecode, false)
	d := c.Codec.Decode(enc, aux, left)
	c.rec.end(i, 1)
	return d
}

type tracedFast struct {
	*tracedCodec
	fast coset.FastCodec
}

func (c tracedFast) EncodeSliced(data uint64, ev *coset.Evaluator, sc *coset.SlicedCtx) (uint64, uint64) {
	return encodeSliced(c.tracedCodec, c.fast, data, ev, sc)
}

type tracedDec struct {
	*tracedCodec
	dec coset.LineDecoder
}

func (c tracedDec) DecodeWords(enc, aux, left, out []uint64) {
	decodeWords(c.tracedCodec, c.dec, enc, aux, left, out)
}

type tracedFastDec struct {
	*tracedCodec
	fast coset.FastCodec
	dec  coset.LineDecoder
}

func (c tracedFastDec) EncodeSliced(data uint64, ev *coset.Evaluator, sc *coset.SlicedCtx) (uint64, uint64) {
	return encodeSliced(c.tracedCodec, c.fast, data, ev, sc)
}

func (c tracedFastDec) DecodeWords(enc, aux, left, out []uint64) {
	decodeWords(c.tracedCodec, c.dec, enc, aux, left, out)
}

func encodeSliced(c *tracedCodec, f coset.FastCodec, data uint64, ev *coset.Evaluator, sc *coset.SlicedCtx) (uint64, uint64) {
	i := c.rec.begin(lEncode, true)
	enc, aux := f.EncodeSliced(data, ev, sc)
	c.rec.end(i, 1)
	return enc, aux
}

func decodeWords(c *tracedCodec, d coset.LineDecoder, enc, aux, left, out []uint64) {
	i := c.rec.begin(lDecode, false)
	d.DecodeWords(enc, aux, left, out)
	c.rec.end(i, len(out))
}

// wrapCodec returns c wrapped in span timing, implementing exactly the
// optional fast-path interfaces c implements.
func wrapCodec(c coset.Codec, rec *recorder) coset.Codec {
	t := &tracedCodec{Codec: c, rec: rec}
	fast, isFast := c.(coset.FastCodec)
	dec, isDec := c.(coset.LineDecoder)
	switch {
	case isFast && isDec:
		return tracedFastDec{t, fast, dec}
	case isFast:
		return tracedFast{t, fast}
	case isDec:
		return tracedDec{t, dec}
	}
	return t
}

// tracedStore times WriteLine and ReadLine of a LineStore.
type tracedStore struct {
	memctrl.LineStore
	rec   *recorder
	layer layer
}

func (s *tracedStore) WriteLine(line int, p []byte) ([]memctrl.WordOutcome, error) {
	i := s.rec.begin(s.layer, true)
	outs, err := s.LineStore.WriteLine(line, p)
	s.rec.end(i, 0)
	return outs, err
}

func (s *tracedStore) ReadLine(line int, dst []byte) ([]byte, error) {
	i := s.rec.begin(s.layer, false)
	out, err := s.LineStore.ReadLine(line, dst)
	s.rec.end(i, 0)
	return out, err
}

// stack is one shard stack per shard, dispatched serially.
type stack struct {
	part     shard.Partition
	backends []*shard.Backend
	rec      *recorder // nil: untraced
	out      []shard.Outcome
	// shardNS is the last request's Backend time per shard, timed
	// around each op.
	shardNS []float64
}

// newStack builds the workload's per-shard stacks. With rec non-nil
// every layer is wrapped in span timing; the controller, device, crypt
// unit and fault repository come from shard.NewBackend, and the remap
// and cache decorators are rebuilt here over the traced controller.
func newStack(w *Workload, shards int, rec *recorder, crypt bool) (*stack, error) {
	cfg, err := memConfig(w)
	if err != nil {
		return nil, err
	}
	s := &stack{part: shard.Partition{Shards: shards, Lines: w.Lines}, rec: rec,
		out: make([]shard.Outcome, w.Batch), shardNS: make([]float64, shards)}
	for i := 0; i < shards; i++ {
		codec := coset.Codec(cfg.NewEncoder())
		if rec != nil {
			codec = wrapCodec(codec, rec)
		}
		bc := shard.BackendConfig{
			Lines:             s.part.ShardLines(i),
			Codec:             codec,
			Objective:         cfg.Objective,
			DisableEncryption: !crypt,
			FaultRate:         cfg.FaultRate,
			Seed:              shard.ShardSeed(cfg.Seed, i, shards),
			RemapSpares:       cfg.RemapSpares,
			UseFaultRepo:      cfg.UseFaultRepo,
		}
		if rec == nil {
			bc.CacheLines, bc.CachePolicy = cfg.CacheLines, cfg.CachePolicy
		}
		b, err := shard.NewBackend(bc)
		if err != nil {
			return nil, err
		}
		if rec != nil {
			var st memctrl.LineStore = &tracedStore{b.Ctrl, rec, lCtrl}
			if cfg.RemapSpares > 0 {
				r, err := memctrl.NewRemapper(memctrl.RemapConfig{Inner: st, Spares: cfg.RemapSpares, Repo: b.Repo})
				if err != nil {
					return nil, err
				}
				st = &tracedStore{r, rec, lRemap}
			}
			if cfg.CacheLines > 0 {
				c, err := linecache.New(linecache.Config{Inner: st, Lines: cfg.CacheLines, Policy: cfg.CachePolicy})
				if err != nil {
					return nil, err
				}
				st = &tracedStore{c, rec, lCache}
			}
			b.Store = st
		}
		s.backends = append(s.backends, b)
	}
	return s, nil
}

// apply runs one request's ops in order, one Backend call each, and
// returns the first op error.
func (s *stack) apply(ops []shard.Op) error {
	clear(s.shardNS)
	out := s.out[:len(ops)]
	for i := range ops {
		op := &ops[i]
		sh := s.part.ShardOf(op.Line)
		b, local := s.backends[sh], s.part.LocalOf(op.Line)
		var sp int32
		if s.rec != nil {
			s.rec.shard = int8(sh)
			sp = s.rec.begin(lBackend, op.Kind == shard.OpWrite)
		}
		t := time.Now()
		if op.Kind == shard.OpWrite {
			saw, err := b.WriteLine(local, op.Data)
			out[i] = shard.Outcome{SAWCells: saw, Err: err}
		} else {
			data, err := b.ReadLine(local, op.Data)
			out[i] = shard.Outcome{Data: data, Err: err}
		}
		s.shardNS[sh] += float64(time.Since(t))
		if s.rec != nil {
			s.rec.end(sp, 0)
		}
	}
	return outcomeErr(out)
}

// stats sums the stack statistics over shards.
func (s *stack) stats() memctrl.Stats {
	var st memctrl.Stats
	for _, b := range s.backends {
		st.Add(b.StackStats())
	}
	return st
}

// makeRequests generates up to n requests of the workload's op stream
// (tenant 0's for served workloads), with their own data buffers.
func makeRequests(w *Workload, seed uint64, n int) ([][]shard.Op, error) {
	lines := w.Lines / w.tenants()
	stream, err := opStream(w, seed, 0, lines)
	if err != nil {
		return nil, err
	}
	ver := make([]uint32, lines)
	reqs := make([][]shard.Op, n)
	for r := range reqs {
		ops := make([]shard.Op, w.Batch)
		for i := range ops {
			line, read := stream.Next()
			ops[i] = shard.Op{Line: int(line), Kind: shard.OpRead, Data: make([]byte, shard.LineSize)}
			if !read {
				ops[i].Kind = shard.OpWrite
				ver[line]++
				fillLine(ops[i].Data, seed, 0, line, ver[line])
			}
		}
		reqs[r] = ops
	}
	return reqs, nil
}

// selfRows orders the self-time table from the client down.
var selfRows = []string{"server", "shard", "shard.backend", "linecache", "memctrl.remap", "memctrl", "cryptmem", "coset"}

// rungShare is the share of the budget the interleaved rungs run for.
const rungShare = 0.5

// warmShare is the share of each rung's requests excluded as warm-up.
const warmShare = 0.1

// rung is one stack the requests run through, timed per request.
type rung struct {
	name   string
	layer  layer // the span each request makes; nLayers: none written
	do     func(r int, ops []shard.Op) error
	starts []time.Duration // since the run's epoch
	durs   []time.Duration
}

// interleave runs every request through every rung in turn until d
// elapses (at least 10 requests), so drift in the host's speed falls
// on all rungs alike.
func interleave(reqs [][]shard.Op, d time.Duration, epoch time.Time, rungs []*rung) error {
	t0 := time.Now()
	for r, ops := range reqs {
		if r >= 10 && time.Since(t0) > d {
			break
		}
		for _, g := range rungs {
			t := time.Now()
			if err := g.do(r, ops); err != nil {
				return fmt.Errorf("rung %s, request %d: %w", g.name, r, err)
			}
			g.durs = append(g.durs, time.Since(t))
			g.starts = append(g.starts, t.Sub(epoch))
		}
	}
	return nil
}

// stackRung drives a stack; with a recorder it labels each request's
// spans, and it keeps the critical shard's Backend time per request.
func stackRung(name string, st *stack, crit *[]float64) *rung {
	return &rung{name: name, layer: nLayers, do: func(r int, ops []shard.Op) error {
		if st.rec != nil {
			st.rec.req = int32(r)
		}
		err := st.apply(ops)
		if crit != nil {
			*crit = append(*crit, slicesMax(st.shardNS)/1e3)
		}
		return err
	}}
}

func slicesMax(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = max(m, x)
	}
	return m
}

// measured drops the warm-up share of per-request values.
func measured(xs []float64) []float64 { return xs[int(warmShare*float64(len(xs))):] }

func durUS(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, v := range d {
		out[i] = float64(v) / 1e3
	}
	return out
}

// shardTime is one request's time on one shard: total backend time
// and the self time of every layer below it, in ns.
type shardTime struct {
	backend float64
	self    [nLayers]float64
}

// stackRun is the analysis of one traced stack rung.
type stackRun struct {
	rec   *recorder
	stats memctrl.Stats
	// per measured request, on its critical shard (the shard with the
	// longest backend time): backend time and self time per layer
	crit []shardTime
	// per layer over all measured spans: total and self ns, spans, and
	// split by write/read
	total, self   [nLayers][2]float64
	count         [nLayers][2]int64
	words         [nLayers]int64
	hitNS, missNS float64
	hits, misses  int64
}

func outcomeErr(out []shard.Outcome) error {
	for i := range out {
		if out[i].Err != nil {
			return out[i].Err
		}
	}
	return nil
}

// analyse computes self times (span minus its children) and the
// per-request critical-shard breakdown, skipping warm-up requests.
func (sr *stackRun) analyse(shards int, firstReq int32) {
	spans := sr.rec.spans
	child := make([]float64, len(spans))
	for i := range spans {
		if p := spans[i].parent; p >= 0 {
			child[p] += float64(spans[i].end - spans[i].start)
		}
	}
	perShard := make([]shardTime, shards)
	cur := int32(-1)
	flush := func() {
		if cur < firstReq {
			return
		}
		best := 0
		for s := range perShard {
			if perShard[s].backend > perShard[best].backend {
				best = s
			}
		}
		sr.crit = append(sr.crit, perShard[best])
	}
	for i := range spans {
		sp := &spans[i]
		if sp.req != cur {
			flush()
			cur = sp.req
			clear(perShard)
		}
		if sp.req < firstReq {
			continue
		}
		dur := float64(sp.end - sp.start)
		self := dur - child[i]
		k := 0
		if sp.write {
			k = 1
		}
		sr.total[sp.layer][k] += dur
		sr.self[sp.layer][k] += self
		sr.count[sp.layer][k]++
		sr.words[sp.layer] += int64(sp.words)
		if sp.layer == lBackend {
			perShard[sp.shard].backend += dur
		}
		perShard[sp.shard].self[sp.layer] += self
		if sp.layer == lCache && !sp.write {
			if child[i] == 0 {
				sr.hitNS += dur
				sr.hits++
			} else {
				sr.missNS += dur
				sr.misses++
			}
		}
	}
	flush()
}

// critMedian returns the median over measured requests of a layer's
// self time on the critical shard, in µs.
func (sr *stackRun) critMedian(l layer) float64 {
	v := make([]float64, len(sr.crit))
	for i := range sr.crit {
		v[i] = sr.crit[i].self[l] / 1e3
	}
	return median(v)
}

// perSpan returns total (self when self is true) ns per span of a
// layer, writes (k=1) or reads (k=0).
func (sr *stackRun) perSpan(l layer, k int, self bool) float64 {
	if sr.count[l][k] == 0 {
		return 0
	}
	if self {
		return sr.self[l][k] / float64(sr.count[l][k])
	}
	return sr.total[l][k] / float64(sr.count[l][k])
}

// applyRung times ShardedMemory.Apply per request.
func applyRung(w *Workload) (*rung, func(), error) {
	cfg, err := memConfig(w)
	if err != nil {
		return nil, nil, err
	}
	mem, err := vcc.NewShardedMemory(cfg)
	if err != nil {
		return nil, nil, err
	}
	out := make([]vcc.Outcome, w.Batch)
	return &rung{name: "apply", layer: lApply, do: func(_ int, ops []shard.Op) error {
		res, err := mem.Apply(ops, out)
		if err == nil {
			err = outcomeErr(res)
		}
		return err
	}}, mem.Close, nil
}

// serverRun collects the depth-1 round-trip rung's request kinds and
// the in-process server's counters.
type serverRun struct {
	kinds        []string
	busy, devErr func() int64
}

// serverRung times depth-1 round trips through an in-process server on
// loopback, tenant 0, with the server package's synchronous client.
func serverRung(w *Workload) (*rung, *serverRun, func(), error) {
	cfg, err := memConfig(w)
	if err != nil {
		return nil, nil, nil, err
	}
	mem, err := vcc.NewShardedMemory(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	srv, err := server.New(server.Config{Mem: mem, Tenants: w.tenants()})
	if err != nil {
		mem.Close()
		return nil, nil, nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mem.Close()
		return nil, nil, nil, err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Serve(l)
	}()
	closeAll := func() {
		_ = srv.Stop()
		wg.Wait()
		mem.Close()
	}
	c, err := server.Dial(l.Addr().String())
	if err == nil {
		if _, err = c.Hello(0); err != nil {
			c.Close()
		}
	}
	if err != nil {
		closeAll()
		return nil, nil, nil, fmt.Errorf("server rung: %w", err)
	}
	sr := &serverRun{busy: srv.ShedRequests, devErr: srv.DeviceErrorResponses}
	bops := make([]server.BatchOp, maxBatch)
	bres := make([]server.BatchResult, maxBatch)
	g := &rung{name: "server", layer: lRequest, do: func(_ int, o []shard.Op) error {
		var err error
		switch {
		case len(o) > 1:
			sr.kinds = append(sr.kinds, "batch")
			for i := range o {
				bops[i] = server.BatchOp{Kind: server.BatchWrite, Line: uint64(o[i].Line), Data: o[i].Data}
				if o[i].Kind == shard.OpRead {
					bops[i].Kind = server.BatchRead
				}
			}
			_, err = c.Batch(bops[:len(o)], bres)
		case o[0].Kind == shard.OpWrite:
			sr.kinds = append(sr.kinds, "write")
			_, err = c.Write(uint64(o[0].Line), o[0].Data)
		default:
			sr.kinds = append(sr.kinds, "read")
			_, err = c.Read(uint64(o[0].Line), o[0].Data)
		}
		return err
	}}
	return g, sr, func() { c.Close(); closeAll() }, nil
}

// checkFidelity replays ops through a traced one-shard stack and an
// untraced one-shard ShardedMemory and compares outcomes and simulated
// statistics exactly; it also checks that the codec wrapper exposes
// exactly the fast-path interfaces of the codec it wraps.
func checkFidelity(w *Workload, reqs [][]shard.Op) error {
	cfg, err := memConfig(w)
	if err != nil {
		return err
	}
	inner := cfg.NewEncoder()
	wrapped := wrapCodec(inner, newRecorder("check", time.Now()))
	_, f1 := inner.(coset.FastCodec)
	_, f2 := wrapped.(coset.FastCodec)
	_, d1 := inner.(coset.LineDecoder)
	_, d2 := wrapped.(coset.LineDecoder)
	if f1 != f2 || d1 != d2 {
		return fmt.Errorf("codec wrapper changes the fast paths: FastCodec %v->%v LineDecoder %v->%v", f1, f2, d1, d2)
	}
	one := *w
	one.Shards = 1
	cfg.Shards = 1
	st, err := newStack(&one, 1, newRecorder("fidelity", time.Now()), true)
	if err != nil {
		return err
	}
	mem, err := vcc.NewShardedMemory(cfg)
	if err != nil {
		return err
	}
	defer mem.Close()
	outB := make([]vcc.Outcome, w.Batch)
	for r, ops := range reqs {
		// Both sides read into op.Data: copy the stack's reads out before
		// the engine overwrites them.
		st.rec.req = int32(r)
		st.rec.spans = st.rec.spans[:0]
		if err := st.apply(ops); err != nil {
			return err
		}
		outA := st.out
		saved := make([][]byte, len(ops))
		for i := range ops {
			if ops[i].Kind == shard.OpRead {
				saved[i] = append([]byte(nil), outA[i].Data...)
			}
		}
		res, err := mem.Apply(ops, outB)
		if err != nil {
			return err
		}
		for i := range ops {
			a, b := outA[i], res[i]
			if (a.Err == nil) != (b.Err == nil) || a.SAWCells != b.SAWCells ||
				(ops[i].Kind == shard.OpRead && string(saved[i]) != string(b.Data)) {
				return fmt.Errorf("fidelity: request %d op %d differs between traced stack and ShardedMemory", r, i)
			}
		}
	}
	// Deferred write-back state must reach the devices alike too.
	for _, bk := range st.backends {
		if err := bk.Store.Flush(); err != nil {
			return err
		}
	}
	if err := mem.Flush(); err != nil {
		return err
	}
	a, b := st.stats(), mem.Stats()
	if a.LineWrites != b.LineWrites || a.LineReads != b.LineReads || a.EnergyPJ != b.EnergyPJ ||
		a.BitFlips != b.BitFlips || a.CellChanges != b.CellChanges || a.SAWCells != b.SAWCells ||
		a.CacheHits != b.CacheHits || a.CacheMisses != b.CacheMisses || a.CacheEvictions != b.CacheEvictions ||
		a.Writebacks != b.Writebacks || a.CoalescedWrites != b.CoalescedWrites ||
		a.RemappedLines != b.RemappedLines || a.RepairFailures != b.RepairFailures {
		return fmt.Errorf("fidelity: simulated stats differ: traced %+v vs engine %+v", a, b)
	}
	fmt.Printf("  fidelity: %d requests at one shard: traced stack == ShardedMemory (energy %.3f pJ, flips %d, cell changes %d, SAW %d, hits %d)\n",
		len(reqs), a.EnergyPJ, a.BitFlips, a.CellChanges, a.SAWCells, a.CacheHits)
	return nil
}

// loaded is what the loaded phase measures.
type loaded struct {
	p50, p90, p99, lagP99, bytesPerOp float64
	inflightMax                       int64
	rep                               childReport
}

// runLoaded runs the served workload at its nominal rate against the
// serving child for the tail latency, generator and server counters.
func runLoaded(w *Workload, seed uint64, d time.Duration) (*loaded, error) {
	ch, g, _, err := openServed(w, seed, 1)
	if err != nil {
		return nil, err
	}
	if err := g.warm(); err != nil {
		_, _ = g.close(ch)
		return nil, err
	}
	var b0 int64
	for _, c := range g.conns {
		b0 += c.bytesOut + c.bytesIn
	}
	ph, err := g.rateStep(w, w.NominalOpsS, d)
	if err != nil {
		_, _ = g.close(ch)
		return nil, err
	}
	var b1 int64
	for _, c := range g.conns {
		b1 += c.bytesOut + c.bytesIn
	}
	rep, err := g.close(ch)
	if err != nil {
		return nil, err
	}
	if ph.failedOps > 0 {
		return nil, fmt.Errorf("loaded phase: %d ops failed", ph.failedOps)
	}
	return &loaded{p50: windowed(ph.lat, 0.50), p90: windowed(ph.lat, 0.90), p99: windowed(ph.lat, 0.99), lagP99: windowed(ph.lag, 0.99), inflightMax: ph.inflightMax,
		bytesPerOp: float64(b1-b0) / float64(ph.ops), rep: rep}, nil
}

func runTraced(w *Workload, seed uint64, budget time.Duration) (result, error) {
	var res result
	nreq := max(1000, 200000/w.Batch)
	reqs, err := makeRequests(w, seed, nreq)
	if err != nil {
		return res, err
	}
	fid := reqs[:min(len(reqs), max(200, 4000/w.Batch))]
	if err := checkFidelity(w, fid); err != nil {
		fmt.Println(" ", err)
		res.Attempted, res.Failed = int64(len(fid)*w.Batch), 1
		return res, nil
	}
	// The fidelity replay only wrote into the read ops' destination
	// buffers, so the rungs reuse the same requests.

	applyG, closeApply, err := applyRung(w)
	if err != nil {
		return res, err
	}
	defer closeApply()
	plainSt, err := newStack(w, w.Shards, nil, true)
	if err != nil {
		return res, err
	}
	epoch := time.Now()
	tracedSt, err := newStack(w, w.Shards, newRecorder("stack", epoch), true)
	if err != nil {
		return res, err
	}
	nocryptSt, err := newStack(w, w.Shards, newRecorder("nocrypt", epoch), false)
	if err != nil {
		return res, err
	}
	var critB []float64
	plainG := stackRung("plain", plainSt, &critB)
	tracedG := stackRung("stack", tracedSt, nil)
	rungs := []*rung{applyG, plainG, tracedG, stackRung("nocrypt", nocryptSt, nil)}
	var srv *serverRun
	var srvG *rung
	if w.served() {
		var closeSrv func()
		if srvG, srv, closeSrv, err = serverRung(w); err != nil {
			return res, err
		}
		defer closeSrv()
		rungs = append(rungs, srvG)
	}
	if err := interleave(reqs, time.Duration(rungShare*float64(budget)), epoch, rungs); err != nil {
		return res, err
	}
	nreqs := len(applyG.durs)
	first := int32(warmShare * float64(nreqs))
	traced := &stackRun{rec: tracedSt.rec, stats: tracedSt.stats()}
	traced.analyse(w.Shards, first)
	nocrypt := &stackRun{rec: nocryptSt.rec, stats: nocryptSt.stats()}
	nocrypt.analyse(w.Shards, first)
	critB = critB[first:]
	apply := durUS(applyG.durs)

	var ld *loaded
	if w.served() {
		if ld, err = runLoaded(w, seed, time.Duration(nominalShare*float64(budget))); err != nil {
			return res, err
		}
	}

	// trace_overhead: the fully traced stack's time over the same stack
	// timed per op only, on the same requests.
	overhead := sumOf(measured(durUS(tracedG.durs)))/sumOf(measured(durUS(plainG.durs))) - 1

	medApply := median(measured(apply))
	ctrlSelf := traced.critMedian(lCtrl)
	ctrlSelfNoCrypt := nocrypt.critMedian(lCtrl)
	selfUS := map[string]float64{
		"shard":         medApply - median(critB),
		"shard.backend": traced.critMedian(lBackend),
		"linecache":     traced.critMedian(lCache),
		"memctrl.remap": traced.critMedian(lRemap),
		"memctrl":       ctrlSelfNoCrypt,
		"cryptmem":      ctrlSelf - ctrlSelfNoCrypt,
		"coset":         traced.critMedian(lEncode) + traced.critMedian(lDecode),
		"server":        0,
	}
	reqUS := medApply
	if srv != nil {
		reqUS = median(measured(durUS(srvG.durs)))
		selfUS["server"] = reqUS - medApply
	}
	sum := 0.0
	fmt.Printf("  self-time table, us per request (medians over requests; layers below shard on the critical shard):\n")
	for _, k := range selfRows {
		fmt.Printf("    %-16s %10.2f\n", k, selfUS[k])
		sum += selfUS[k]
	}
	fmt.Printf("    %-16s %10.2f\n    %-16s %10.2f  (median request time, untraced)\n", "sum", sum, "request", reqUS)
	selfErr := checkSelfTimes(sum, reqUS, overhead)
	switch {
	case selfErr == nil:
		fmt.Printf("  self-time sum vs request: gap %+.3f, within trace_overhead %.3f\n", (sum-reqUS)/reqUS, overhead)
	case !w.served():
		// Without the server the request is one Apply, almost all of it
		// traced backend time, so the expected gap is the trace overhead
		// itself and noise alone decides the verdict: printed, not enforced.
		fmt.Println(" ", selfErr, "(not enforced without the server)")
		selfErr = nil
	default:
		fmt.Println(" ", selfErr)
	}

	st := traced.stats
	printExactStats("traced stack", vcc.Stats{LineWrites: st.LineWrites, LineReads: st.LineReads, EnergyPJ: st.EnergyPJ,
		BitFlips: st.BitFlips, CellChanges: st.CellChanges, SAWCells: st.SAWCells, CacheHits: st.CacheHits,
		CacheMisses: st.CacheMisses, RemappedLines: st.RemappedLines, RepairFailures: st.RepairFailures})
	fmt.Printf("  rungs interleaved per request: %s; %d requests each, first %d excluded as warm-up\n",
		rungNames(rungs), nreqs, first)
	if srv != nil {
		byKind := map[string][]float64{}
		for i, us := range durUS(srvG.durs)[first:] {
			k := srv.kinds[int(first)+i]
			byKind[k] = append(byKind[k], us)
		}
		for _, k := range []string{"batch", "write", "read"} {
			if v := byKind[k]; len(v) > 0 {
				fmt.Printf("  depth-1 rtt %s: p50 %.1fus (n=%d)\n", k, median(v), len(v))
			}
		}
	}
	res.Attempted = int64(nreqs*len(rungs)) * int64(w.Batch)
	res.Correct = selfErr == nil
	if selfErr != nil {
		res.Failed = 1
	}
	res.set("self.request_us", reqUS, "us")
	res.set("self.sum_us", sum, "us")
	for k, v := range selfUS {
		res.set("self."+k+"_us", v, "us")
	}
	res.set("trace_overhead", overhead, "frac")
	res.set("coset.encode_ns_per_word", traced.total[lEncode][1]/float64(max(traced.words[lEncode], 1)), "ns")
	decLines := float64(traced.words[lDecode]) / memctrl.WordsPerLine
	res.set("coset.decode_ns_per_line", traced.total[lDecode][0]/max(decLines, 1), "ns")
	res.set("coset.words_encoded", float64(traced.words[lEncode]), "count")
	res.set("coset.words_decoded", float64(traced.words[lDecode]), "count")
	res.set("cryptmem.encrypt_ns_per_line", traced.perSpan(lCtrl, 1, true)-nocrypt.perSpan(lCtrl, 1, true), "ns")
	res.set("cryptmem.decrypt_ns_per_line", traced.perSpan(lCtrl, 0, true)-nocrypt.perSpan(lCtrl, 0, true), "ns")
	res.set("memctrl.write_ns_per_line", traced.perSpan(lCtrl, 1, false), "ns")
	res.set("memctrl.read_ns_per_line", traced.perSpan(lCtrl, 0, false), "ns")
	res.set("memctrl.write_self_ns_per_line", nocrypt.perSpan(lCtrl, 1, true), "ns")
	remapOps := traced.count[lRemap][0] + traced.count[lRemap][1]
	res.set("memctrl.remap_ns_per_op", (traced.self[lRemap][0]+traced.self[lRemap][1])/float64(max(remapOps, 1)), "ns")
	res.set("memctrl.remapped_lines", float64(st.RemappedLines), "count")
	res.set("memctrl.repair_failures", float64(st.RepairFailures), "count")
	res.set("memctrl.saw_per_kwrite", 1000*float64(st.SAWCells)/float64(max(st.LineWrites, 1)), "count")
	res.set("linecache.hit_rate", st.HitRate(), "frac")
	res.set("linecache.reads", float64(st.CacheHits+st.CacheMisses), "count")
	res.set("linecache.hit_ns", traced.hitNS/float64(max(traced.hits, 1)), "ns")
	res.set("linecache.miss_ns", traced.missNS/float64(max(traced.misses, 1)), "ns")
	res.set("linecache.evictions", float64(st.CacheEvictions), "count")
	res.set("linecache.writebacks", float64(st.Writebacks), "count")
	res.set("linecache.coalesced_frac", float64(st.CoalescedWrites)/float64(max(traced.count[lCache][1], 1)), "frac")
	// Apply and the critical shard's backend time per request, each
	// spread over the request's ops; their difference is the engine's
	// hand-off cost on the critical path.
	ma := measured(apply)
	applyPerOp := 1e3 * sumOf(ma) / float64(len(ma)*w.Batch)
	backendPerOp := 1e3 * sumOf(critB) / float64(len(critB)*w.Batch)
	res.set("shard.apply_ns_per_op", applyPerOp, "ns")
	res.set("shard.backend_ns_per_op", backendPerOp, "ns")
	res.set("shard.overhead_ns_per_op", applyPerOp-backendPerOp, "ns")
	res.set("shard.error_retries", float64(st.ErrorRetries), "count")
	// Latency at the nominal rate: served request latency from the
	// loaded phase, or one Apply for replay. Not gated end to end: on a
	// shared host it moves with the neighbours' load from run to run.
	sortedApply := append([]float64(nil), ma...)
	sort.Float64s(sortedApply)
	res.set("p50_us", quantile(sortedApply, 0.50), "us")
	res.set("p90_us", quantile(sortedApply, 0.90), "us")
	res.set("p99_us", quantile(sortedApply, 0.99), "us")
	for k, unit := range servedOnly {
		res.set(k, 0, unit)
	}
	if srv != nil {
		res.set("server.rtt_us", reqUS, "us")
		res.set("server.self_us_per_req", reqUS-medApply, "us")
		res.set("server.bytes_per_op", ld.bytesPerOp, "bytes")
		res.set("server.busy_responses", float64(srv.busy()+ld.rep.BusyResponses), "count")
		res.set("server.device_error_responses", float64(srv.devErr()+ld.rep.DeviceErrorResponses), "count")
		res.set("p50_us", ld.p50, "us")
		res.set("p90_us", ld.p90, "us")
		res.set("p99_us", ld.p99, "us")
		res.set("gen.lag_p99_us", ld.lagP99, "us")
		res.set("gen.inflight_max", float64(ld.inflightMax), "count")
		fmt.Printf("  loaded phase at %g ops/s: gen.lag_p99_us=%.1f gen.inflight_max=%d bytes/op=%.1f\n",
			w.NominalOpsS, ld.lagP99, ld.inflightMax, ld.bytesPerOp)
	}
	if err := writeSpans(w, seed, rungs, traced.rec, nocrypt.rec); err != nil {
		fmt.Println("  spans not written:", err)
	}
	return res, nil
}

// checkSelfTimes requires the self-time table's rows to add up to the
// median request time within the trace overhead: the rows are timed
// through the traced stack, the request untraced, so tracing may inflate
// the sum by that much and no more.
func checkSelfTimes(sum, reqUS, overhead float64) error {
	gap := (sum - reqUS) / reqUS
	if math.IsNaN(gap) || math.Abs(gap) > math.Abs(overhead) {
		return fmt.Errorf("self-time sum %.2f us vs request %.2f us: gap %+.3f is NOT within trace_overhead %.3f", sum, reqUS, gap, overhead)
	}
	return nil
}

func rungNames(rungs []*rung) string {
	s := ""
	for i, g := range rungs {
		if i > 0 {
			s += ", "
		}
		s += g.name
	}
	return s
}

func sumOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// servedOnly are the per-layer metrics, with their units, that only a
// served workload measures; replay-faulty reports them as 0.
var servedOnly = map[string]string{
	"server.rtt_us":                 "us",
	"server.self_us_per_req":        "us",
	"server.bytes_per_op":           "bytes",
	"server.busy_responses":         "count",
	"server.device_error_responses": "count",
	"gen.lag_p99_us":                "us",
	"gen.inflight_max":              "count",
}

// writeSpans writes the recorded spans as gzip CSV under
// .bench_build/spans in the working directory: the per-request spans of
// the rungs that make one, then every recorder's spans. Times are ns
// since one epoch; request ids index the seeded request sequence.
func writeSpans(w *Workload, seed uint64, rungs []*rung, recs ...*recorder) error {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.csv.gz", w.Name, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "rung,name,start_ns,end_ns,parent,request,write,shard,words")
	for _, g := range rungs {
		if g.layer == nLayers {
			continue
		}
		for r := range g.durs {
			fmt.Fprintf(bw, "%s,%s,%d,%d,-1,%d,,,\n", g.name, layerNames[g.layer], g.starts[r], g.starts[r]+g.durs[r], r)
		}
	}
	for _, r := range recs {
		for i := range r.spans {
			s := &r.spans[i]
			fmt.Fprintf(bw, "%s,%s,%d,%d,%d,%d,%v,%d,%d\n", r.rung, layerNames[s.layer], s.start, s.end, s.parent, s.req, s.write, s.shard, s.words)
		}
	}
	err = errors.Join(bw.Flush(), zw.Close(), f.Close())
	if err == nil {
		fmt.Println("  spans written to", path)
	}
	return err
}
