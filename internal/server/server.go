package server

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	vcc "repro"
	"repro/internal/memctrl"
	"repro/internal/shard"

	"bufio"
)

// Config assembles a Server over an existing engine.
type Config struct {
	// Mem is the engine to serve. The server does not own it: Close
	// stops serving but leaves the memory open for the caller.
	Mem *vcc.ShardedMemory
	// Tenants partitions the line address space into this many equal
	// disjoint slices (tenant t owns global lines
	// [t*Lines/Tenants, (t+1)*Lines/Tenants)). 0 defaults to 1.
	Tenants int
	// MaxBatchOps bounds ops per VerbBatch frame; 0 defaults to
	// DefaultMaxBatchOps.
	MaxBatchOps int
	// Window is the per-connection in-flight request bound: how many
	// parsed requests may sit between the connection's reader and the
	// engine's completion callbacks before the reader stops pulling
	// frames. 0 defaults to 64.
	Window int
	// MaxInflightOps bounds engine ops in flight across all connections.
	// A data request that would exceed it is shed with StatusBusy before
	// touching the engine — graceful degradation instead of unbounded
	// queueing. 0 disables admission control.
	MaxInflightOps int
	// WriteTimeout bounds each response frame write. A client too slow
	// to drain its responses has its connection closed, reclaiming the
	// Window slots its requests occupy. 0 disables the deadline.
	WriteTimeout time.Duration
	// IdleTimeout bounds the wait for the next request frame on an
	// idle connection. 0 (the default) keeps connections open forever.
	IdleTimeout time.Duration
}

// tenantCounter accumulates one tenant's TenantStats under its own
// lock, fed exclusively by per-submission engine deltas
// (Session.SubmitFuncStats), so tenants never contend with each other
// and VerbStats snapshots are exact without freezing the engine.
type tenantCounter struct {
	mu sync.Mutex
	st TenantStats
}

// Server is a multi-tenant line-store service over a vcc.ShardedMemory.
// One Server may serve any number of listeners (Serve) plus the HTTP
// debug front (HTTPHandler) concurrently; all request paths funnel
// through the same validate → submit → account pipeline.
type Server struct {
	mem      *vcc.ShardedMemory
	sess     *vcc.Session
	tenants  int
	linesPer int
	maxBatch int
	window   int

	maxInflightOps int64
	inflightOps    atomic.Int64 // engine ops admitted but not yet completed
	shed           atomic.Int64 // requests refused with StatusBusy
	deviceErrors   atomic.Int64 // requests answered with StatusDeviceError

	writeTimeout time.Duration
	idleTimeout  time.Duration

	tstats []tenantCounter

	// mu pairs request admission against Close, exactly like the
	// engine's qmu: a request that passes the down check holds the read
	// lock while joining inflight, so Close's inflight.Wait covers it.
	mu       sync.RWMutex
	down     bool
	inflight sync.WaitGroup

	lmu       sync.Mutex
	listeners map[net.Listener]struct{}

	cmu      sync.Mutex
	stopped  bool
	conns    map[net.Conn]struct{}
	handlers sync.WaitGroup
}

// errShutdown is the internal sentinel for requests refused by Close.
var errShutdown = errors.New("server: shutting down")

// New builds a Server over cfg.Mem. Every tenant must own at least one
// line.
func New(cfg Config) (*Server, error) {
	if cfg.Mem == nil {
		return nil, errors.New("server: Config.Mem is required")
	}
	tenants := cfg.Tenants
	if tenants == 0 {
		tenants = 1
	}
	if tenants < 0 {
		return nil, fmt.Errorf("server: %d tenants", tenants)
	}
	linesPer := cfg.Mem.Lines() / tenants
	if linesPer == 0 {
		return nil, fmt.Errorf("server: %d lines cannot host %d tenants", cfg.Mem.Lines(), tenants)
	}
	maxBatch := cfg.MaxBatchOps
	if maxBatch == 0 {
		maxBatch = DefaultMaxBatchOps
	}
	window := cfg.Window
	if window == 0 {
		window = 64
	}
	return &Server{
		mem:            cfg.Mem,
		sess:           cfg.Mem.Session(),
		tenants:        tenants,
		linesPer:       linesPer,
		maxBatch:       maxBatch,
		window:         window,
		maxInflightOps: int64(cfg.MaxInflightOps),
		writeTimeout:   cfg.WriteTimeout,
		idleTimeout:    cfg.IdleTimeout,
		tstats:         make([]tenantCounter, tenants),
		listeners:      make(map[net.Listener]struct{}),
		conns:          make(map[net.Conn]struct{}),
	}, nil
}

// ShedRequests returns how many data requests admission control has
// refused with StatusBusy.
func (s *Server) ShedRequests() int64 { return s.shed.Load() }

// DeviceErrorResponses returns how many data requests were answered
// with StatusDeviceError.
func (s *Server) DeviceErrorResponses() int64 { return s.deviceErrors.Load() }

// Tenants returns the tenant count.
func (s *Server) Tenants() int { return s.tenants }

// TenantLines returns the slice size every tenant owns, in lines.
func (s *Server) TenantLines() int { return s.linesPer }

// TenantStats returns tenant t's accumulated statistics snapshot.
func (s *Server) TenantStats(t int) (TenantStats, error) {
	if t < 0 || t >= s.tenants {
		return TenantStats{}, fmt.Errorf("server: tenant %d out of range [0,%d)", t, s.tenants)
	}
	tc := &s.tstats[t]
	tc.mu.Lock()
	st := tc.st
	tc.mu.Unlock()
	return st, nil
}

// account folds one completed submission's engine delta into tenant
// t's counter. ops is the op count of the submission.
func (s *Server) account(t, ops int, d memctrl.Stats) {
	tc := &s.tstats[t]
	tc.mu.Lock()
	tc.st.Ops += int64(ops)
	tc.st.LineWrites += d.LineWrites
	tc.st.LineReads += d.LineReads
	tc.st.SAWCells += d.SAWCells
	tc.st.BitFlips += d.BitFlips
	tc.st.CellChanges += d.CellChanges
	tc.st.CacheHits += d.CacheHits
	tc.st.CacheMisses += d.CacheMisses
	tc.st.EnergyPJ += d.EnergyPJ
	tc.mu.Unlock()
}

// admit joins the in-flight request group unless the server is
// shutting down.
func (s *Server) admit() error {
	s.mu.RLock()
	if s.down {
		s.mu.RUnlock()
		return errShutdown
	}
	s.inflight.Add(1)
	s.mu.RUnlock()
	return nil
}

// Serve accepts connections on l until the listener fails or the
// server is closed (which closes l). It always returns a nil error
// after Close; pass one listener per Serve goroutine.
func (s *Server) Serve(l net.Listener) error {
	s.lmu.Lock()
	s.listeners[l] = struct{}{}
	s.lmu.Unlock()
	for {
		nc, err := l.Accept()
		if err != nil {
			s.mu.RLock()
			down := s.down
			s.mu.RUnlock()
			if down {
				return nil
			}
			return err
		}
		s.cmu.Lock()
		if s.stopped {
			s.cmu.Unlock()
			nc.Close()
			continue
		}
		s.conns[nc] = struct{}{}
		s.handlers.Add(1)
		s.cmu.Unlock()
		go s.handleConn(nc)
	}
}

// Close stops admitting engine work and waits for every in-flight
// request to complete: listeners close, but live connections stay up
// and answer subsequent data verbs with StatusShutdown (a typed
// response, not a dropped connection). The underlying memory is not
// closed — it belongs to the caller. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	already := s.down
	s.down = true
	s.mu.Unlock()
	if already {
		return nil
	}
	s.lmu.Lock()
	for l := range s.listeners {
		l.Close()
	}
	s.lmu.Unlock()
	s.inflight.Wait()
	return nil
}

// Stop is Close plus connection teardown: every live connection is
// closed and all handler goroutines are joined before it returns.
func (s *Server) Stop() error {
	s.Close()
	s.cmu.Lock()
	s.stopped = true
	for nc := range s.conns {
		nc.Close()
	}
	s.cmu.Unlock()
	s.handlers.Wait()
	return nil
}

// slot is one in-flight request's buffers. A connection owns Window
// slots cycling reader → engine → writer → reader; the request buffer
// may be aliased by in-flight write ops and the response buffer by
// in-flight read destinations, so a slot is only recycled after its
// response hits the wire.
type slot struct {
	req  []byte
	resp []byte
	ops  []shard.Op
	out  []shard.Outcome
	// sawOff[i] is the response offset of op i's uint32 SAW count
	// (write ops; -1 for reads), filled by the completion callback.
	sawOff []int
	// ready fires when resp is complete (buffered: the engine callback
	// never blocks on it).
	ready chan struct{}
	// The submitted request (id, op count, tenant) and its completion
	// callback, built once per slot so a submission allocates nothing.
	id           uint32
	nops, tenant int
	done         func([]shard.Outcome, memctrl.Stats, error)
}

// connState is the per-connection tenant binding.
type connState struct {
	tenant int
	base   int
}

// handleConn runs one connection: a reader goroutine (this one)
// parses frames and bridges data verbs straight onto the engine's
// issue queues via Session.SubmitFuncStats — no goroutine per request
// — while a writer goroutine streams responses back in request order.
func (s *Server) handleConn(nc net.Conn) {
	defer s.handlers.Done()
	defer func() {
		s.cmu.Lock()
		delete(s.conns, nc)
		s.cmu.Unlock()
	}()

	sess := s.mem.Session()
	free := make(chan *slot, s.window)
	for i := 0; i < s.window; i++ {
		sl := &slot{ready: make(chan struct{}, 1)}
		sl.done = func(out []shard.Outcome, d memctrl.Stats, err error) { s.complete(sl, out, d, err) }
		free <- sl
	}
	pending := make(chan *slot, s.window)

	bw := bufio.NewWriter(nc)
	var broken bool // writer-side: wire failed, drain without writing
	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		for sl := range pending {
			<-sl.ready
			if !broken {
				if s.writeTimeout > 0 {
					nc.SetWriteDeadline(time.Now().Add(s.writeTimeout))
				}
				if err := writeFrame(bw, sl.resp); err != nil {
					broken = true
					nc.Close() // unblock the reader, reclaim its slots
				} else if len(pending) == 0 {
					if err := bw.Flush(); err != nil {
						broken = true
						nc.Close()
					}
				}
			}
			free <- sl
		}
		if !broken {
			bw.Flush()
		}
	}()

	br := bufio.NewReader(nc)
	cs := &connState{tenant: -1}
	for {
		sl := <-free
		if s.idleTimeout > 0 {
			nc.SetReadDeadline(time.Now().Add(s.idleTimeout))
		}
		payload, err := readFrame(br, sl.req)
		if err != nil {
			if errors.Is(err, errFrameTooLarge) {
				// The frame cannot be skipped, so this farewell is the
				// connection's last response.
				s.respondError(sl, 0, StatusTooLarge, "frame exceeds MaxFrame")
				pending <- sl
			} else {
				free <- sl
			}
			break
		}
		sl.req = payload
		s.handle(cs, sess, sl)
		pending <- sl
	}

	// Everything this connection submitted completes (callbacks
	// included) before the response queue closes, so the writer sees
	// every response.
	sess.Drain()
	close(pending)
	wwg.Wait()
	nc.Close()
}

// respondOK sizes sl.resp for an OK response with a body of n bytes
// and returns the body slice; the caller fills it (or aliases read
// destinations into it) and signals ready when done.
func (sl *slot) respondOK(id uint32, n int) []byte {
	need := reqHeaderLen + n
	if cap(sl.resp) < need {
		sl.resp = make([]byte, need)
	}
	sl.resp = sl.resp[:need]
	sl.resp[0] = StatusOK
	binary.BigEndian.PutUint32(sl.resp[1:5], id)
	return sl.resp[reqHeaderLen:]
}

// respondError builds a typed error response and marks the slot ready.
func (s *Server) respondError(sl *slot, id uint32, status byte, msg string) {
	sl.resp = append(sl.resp[:0], status)
	sl.resp = binary.BigEndian.AppendUint32(sl.resp, id)
	sl.resp = append(sl.resp, msg...)
	sl.ready <- struct{}{}
}

// handle parses one request frame and either completes it
// synchronously (hello, stats, flush, every error) or submits its ops
// to the engine with a completion callback that finishes the response.
// It never blocks on the engine beyond queue backpressure.
func (s *Server) handle(cs *connState, sess *vcc.Session, sl *slot) {
	p := sl.req
	if len(p) < reqHeaderLen {
		s.respondError(sl, 0, StatusMalformed, "short request header")
		return
	}
	verb, id, body := p[0], binary.BigEndian.Uint32(p[1:5]), p[reqHeaderLen:]

	switch verb {
	case VerbHello:
		if len(body) != 4 {
			s.respondError(sl, id, StatusMalformed, "hello body must be a uint32 tenant")
			return
		}
		t := int(binary.BigEndian.Uint32(body))
		if cs.tenant >= 0 {
			s.respondError(sl, id, StatusBadTenant,
				fmt.Sprintf("connection already bound to tenant %d", cs.tenant))
			return
		}
		if t >= s.tenants {
			s.respondError(sl, id, StatusBadTenant,
				fmt.Sprintf("tenant %d out of range [0,%d)", t, s.tenants))
			return
		}
		cs.tenant = t
		cs.base = t * s.linesPer
		out := sl.respondOK(id, 8)
		binary.BigEndian.PutUint64(out, uint64(s.linesPer))
		sl.ready <- struct{}{}

	case VerbStats:
		if cs.tenant < 0 {
			s.respondError(sl, id, StatusNoTenant, "stats before hello")
			return
		}
		st, _ := s.TenantStats(cs.tenant)
		out := sl.respondOK(id, tenantStatsWireLen)
		st.AppendBinary(out[:0])
		sl.ready <- struct{}{}

	case VerbFlush:
		if len(body) != 0 {
			s.respondError(sl, id, StatusMalformed, "flush takes no body")
			return
		}
		if err := s.admit(); err != nil {
			s.respondError(sl, id, StatusShutdown, err.Error())
			return
		}
		// Blocking the reader is the point: the flush barrier covers
		// everything this connection submitted before it.
		s.mem.Flush()
		s.inflight.Done()
		sl.respondOK(id, 0)
		sl.ready <- struct{}{}

	case VerbWrite, VerbRead, VerbBatch:
		if cs.tenant < 0 {
			s.respondError(sl, id, StatusNoTenant, "data verb before hello")
			return
		}
		s.handleData(cs, sess, sl, verb, id, body)

	default:
		s.respondError(sl, id, StatusUnknownVerb,
			fmt.Sprintf("unknown verb %d", verb))
	}
}

// handleData parses a write/read/batch body into the slot's op slice,
// lays out the OK response (read destinations alias it), and submits.
func (s *Server) handleData(cs *connState, sess *vcc.Session, sl *slot, verb byte, id uint32, body []byte) {
	sl.ops = sl.ops[:0]
	sl.sawOff = sl.sawOff[:0]

	// Parse into (kind, tenant-relative line, write payload) triples
	// and compute the response body size.
	respLen := 0
	switch verb {
	case VerbWrite:
		if len(body) != 8+LineSize {
			s.respondError(sl, id, StatusMalformed,
				fmt.Sprintf("write body is %d bytes, want %d", len(body), 8+LineSize))
			return
		}
		line := binary.BigEndian.Uint64(body)
		if line >= uint64(s.linesPer) {
			s.respondError(sl, id, StatusRange, s.rangeMsg(cs.tenant, line))
			return
		}
		sl.ops = append(sl.ops, shard.Op{Kind: shard.OpWrite, Line: cs.base + int(line), Data: body[8 : 8+LineSize]})
		sl.sawOff = append(sl.sawOff, reqHeaderLen)
		respLen = 4
	case VerbRead:
		if len(body) != 8 {
			s.respondError(sl, id, StatusMalformed,
				fmt.Sprintf("read body is %d bytes, want 8", len(body)))
			return
		}
		line := binary.BigEndian.Uint64(body)
		if line >= uint64(s.linesPer) {
			s.respondError(sl, id, StatusRange, s.rangeMsg(cs.tenant, line))
			return
		}
		sl.ops = append(sl.ops, shard.Op{Kind: shard.OpRead, Line: cs.base + int(line)})
		sl.sawOff = append(sl.sawOff, -1)
		respLen = LineSize
	case VerbBatch:
		if len(body) < 4 {
			s.respondError(sl, id, StatusMalformed, "batch body shorter than its count")
			return
		}
		count := int(binary.BigEndian.Uint32(body))
		if count > s.maxBatch {
			s.respondError(sl, id, StatusTooLarge,
				fmt.Sprintf("batch of %d ops exceeds the %d-op bound", count, s.maxBatch))
			return
		}
		respLen = 4
		off := 4
		for i := 0; i < count; i++ {
			if off >= len(body) {
				s.respondError(sl, id, StatusMalformed,
					fmt.Sprintf("batch truncated at op %d", i))
				return
			}
			kind := body[off]
			off++
			if off+8 > len(body) {
				s.respondError(sl, id, StatusMalformed,
					fmt.Sprintf("batch truncated at op %d", i))
				return
			}
			line := binary.BigEndian.Uint64(body[off:])
			off += 8
			if line >= uint64(s.linesPer) {
				s.respondError(sl, id, StatusRange, s.rangeMsg(cs.tenant, line))
				return
			}
			switch kind {
			case BatchWrite:
				if off+LineSize > len(body) {
					s.respondError(sl, id, StatusMalformed,
						fmt.Sprintf("batch truncated at op %d", i))
					return
				}
				sl.ops = append(sl.ops, shard.Op{Kind: shard.OpWrite, Line: cs.base + int(line), Data: body[off : off+LineSize]})
				off += LineSize
				respLen += 1 + 4
			case BatchRead:
				sl.ops = append(sl.ops, shard.Op{Kind: shard.OpRead, Line: cs.base + int(line)})
				respLen += 1 + LineSize
			default:
				s.respondError(sl, id, StatusMalformed,
					fmt.Sprintf("batch op %d has unknown kind %d", i, kind))
				return
			}
		}
		if off != len(body) {
			s.respondError(sl, id, StatusMalformed,
				fmt.Sprintf("batch has %d trailing bytes", len(body)-off))
			return
		}
	}

	// Lay out the response and alias read destinations into it, then
	// record where each write's SAW count lands.
	out := sl.respondOK(id, respLen)
	if verb == VerbBatch {
		binary.BigEndian.PutUint32(out, uint32(len(sl.ops)))
		off := 4
		sl.sawOff = sl.sawOff[:0]
		for i := range sl.ops {
			if sl.ops[i].Kind == shard.OpWrite {
				out[off] = BatchWrite
				sl.sawOff = append(sl.sawOff, reqHeaderLen+off+1)
				off += 1 + 4
			} else {
				out[off] = BatchRead
				sl.ops[i].Data = out[off+1 : off+1+LineSize]
				sl.sawOff = append(sl.sawOff, -1)
				off += 1 + LineSize
			}
		}
	} else if verb == VerbRead {
		sl.ops[0].Data = out[:LineSize]
	}

	if err := s.admit(); err != nil {
		s.respondError(sl, id, StatusShutdown, err.Error())
		return
	}
	tenant, nops := cs.tenant, len(sl.ops)
	// Admission control: shed instead of queueing once the engine-wide
	// op budget is spent. Nothing was submitted, so the tenant is not
	// charged and the client may retry after a backoff.
	if s.maxInflightOps > 0 && s.inflightOps.Add(int64(nops)) > s.maxInflightOps {
		s.inflightOps.Add(int64(-nops))
		s.inflight.Done()
		s.shed.Add(1)
		s.respondError(sl, id, StatusBusy,
			fmt.Sprintf("in-flight op budget (%d) exhausted", s.maxInflightOps))
		return
	}
	if cap(sl.out) < nops {
		sl.out = make([]shard.Outcome, nops)
	}
	sl.id, sl.nops, sl.tenant = id, nops, tenant
	err := sess.SubmitFuncStats(sl.ops, sl.out[:nops], sl.done)
	if err != nil {
		// Submission itself failed (engine closed under us): the
		// callback never fires.
		if s.maxInflightOps > 0 {
			s.inflightOps.Add(int64(-nops))
		}
		s.inflight.Done()
		status := byte(StatusMalformed)
		if errors.Is(err, vcc.ErrClosed) {
			status = StatusShutdown
		}
		s.respondError(sl, id, status, err.Error())
	}
}

// complete finishes a submitted data request: it runs on an engine
// drainer goroutine and must not block. ready is buffered and the
// tenant counter is only held for the fold.
func (s *Server) complete(sl *slot, out []shard.Outcome, d memctrl.Stats, err error) {
	id, nops, tenant := sl.id, sl.nops, sl.tenant
	if s.maxInflightOps > 0 {
		s.inflightOps.Add(int64(-nops))
	}
	if err != nil {
		s.respondError(sl, id, StatusShutdown, err.Error())
		s.inflight.Done()
		return
	}
	var opErr error
	failed := 0
	for i := range out[:nops] {
		if out[i].Err != nil {
			failed++
			if opErr == nil {
				opErr = out[i].Err
			}
		}
	}
	if opErr != nil {
		// The engine did the work (and possibly left corrupted
		// cells), so the tenant is charged exactly as on success —
		// reconciliation counts every admitted op once.
		s.account(tenant, nops, d)
		s.deviceErrors.Add(1)
		s.respondError(sl, id, StatusDeviceError,
			fmt.Sprintf("%d/%d ops failed: %v", failed, nops, opErr))
	} else {
		for i, off := range sl.sawOff {
			if off >= 0 {
				binary.BigEndian.PutUint32(sl.resp[off:], uint32(out[i].SAWCells))
			}
		}
		s.account(tenant, nops, d)
		sl.ready <- struct{}{}
	}
	s.inflight.Done()
}

// rangeMsg formats the one StatusRange message.
func (s *Server) rangeMsg(tenant int, line uint64) string {
	return fmt.Sprintf("line %d outside tenant %d's %d-line slice", line, tenant, s.linesPer)
}

// do runs ops synchronously through the shared server session with
// tenant accounting — the HTTP front's bridge onto the same engine
// path the TCP verbs use.
func (s *Server) do(tenant int, ops []shard.Op, out []shard.Outcome) error {
	if err := s.admit(); err != nil {
		return err
	}
	done := make(chan error, 1)
	err := s.sess.SubmitFuncStats(ops, out, func(o []shard.Outcome, d memctrl.Stats, err error) {
		if err == nil {
			s.account(tenant, len(ops), d)
			for i := range o {
				if o[i].Err != nil {
					err = o[i].Err
					s.deviceErrors.Add(1)
					break
				}
			}
		}
		done <- err
		s.inflight.Done()
	})
	if err != nil {
		s.inflight.Done()
		return err
	}
	return <-done
}

// httpError writes a JSON error with the closest wire status mnemonic.
func httpError(w http.ResponseWriter, code int, status byte, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{
		"error":  StatusName(status),
		"detail": msg,
	})
}

// httpTenantLine parses and validates ?tenant= and (optionally)
// ?line= query parameters.
func (s *Server) httpTenantLine(w http.ResponseWriter, r *http.Request, needLine bool) (tenant int, line uint64, ok bool) {
	t, err := strconv.Atoi(r.URL.Query().Get("tenant"))
	if err != nil || t < 0 || t >= s.tenants {
		httpError(w, http.StatusBadRequest, StatusBadTenant,
			fmt.Sprintf("tenant must be in [0,%d)", s.tenants))
		return 0, 0, false
	}
	if !needLine {
		return t, 0, true
	}
	line, err = strconv.ParseUint(r.URL.Query().Get("line"), 10, 64)
	if err != nil || line >= uint64(s.linesPer) {
		httpError(w, http.StatusBadRequest, StatusRange, s.rangeMsg(t, line))
		return 0, 0, false
	}
	return t, line, true
}

// HTTPHandler returns the thin JSON debug front over the same engine
// path: GET /v1/stats?tenant=N, GET /v1/line?tenant=N&line=M,
// PUT /v1/line?tenant=N&line=M with {"data":"<128 hex chars>"}, and
// GET /healthz. It is for inspection and smoke tests, not throughput —
// the binary TCP protocol is the data plane.
func (s *Server) HTTPHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		tenant, _, ok := s.httpTenantLine(w, r, false)
		if !ok {
			return
		}
		st, _ := s.TenantStats(tenant)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(st)
	})
	mux.HandleFunc("/v1/line", func(w http.ResponseWriter, r *http.Request) {
		tenant, line, ok := s.httpTenantLine(w, r, true)
		if !ok {
			return
		}
		base := tenant * s.linesPer
		switch r.Method {
		case http.MethodGet:
			var buf [LineSize]byte
			ops := []shard.Op{{Kind: shard.OpRead, Line: base + int(line), Data: buf[:]}}
			out := make([]shard.Outcome, 1)
			if err := s.do(tenant, ops, out); err != nil {
				if memctrl.IsTransient(err) {
					httpError(w, http.StatusInternalServerError, StatusDeviceError, err.Error())
				} else {
					httpError(w, http.StatusServiceUnavailable, StatusShutdown, err.Error())
				}
				return
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(map[string]any{
				"line": line,
				"data": hex.EncodeToString(out[0].Data),
			})
		case http.MethodPut, http.MethodPost:
			var req struct {
				Data string `json:"data"`
			}
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				httpError(w, http.StatusBadRequest, StatusMalformed, err.Error())
				return
			}
			data, err := hex.DecodeString(req.Data)
			if err != nil || len(data) != LineSize {
				httpError(w, http.StatusBadRequest, StatusMalformed,
					fmt.Sprintf("data must be %d hex-encoded bytes", LineSize))
				return
			}
			ops := []shard.Op{{Kind: shard.OpWrite, Line: base + int(line), Data: data}}
			out := make([]shard.Outcome, 1)
			if err := s.do(tenant, ops, out); err != nil {
				if memctrl.IsTransient(err) {
					httpError(w, http.StatusInternalServerError, StatusDeviceError, err.Error())
				} else {
					httpError(w, http.StatusServiceUnavailable, StatusShutdown, err.Error())
				}
				return
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(map[string]any{
				"line": line,
				"saw":  out[0].SAWCells,
			})
		default:
			httpError(w, http.StatusMethodNotAllowed, StatusUnknownVerb, "use GET or PUT")
		}
	})
	return mux
}
