package main

// Open-loop pipelined load generator. Each connection is bound to its
// own tenant and keeps up to window requests in flight: a sender
// goroutine writes every request when it falls due without waiting for
// earlier replies, and a receiver goroutine matches the in-order
// responses, checks them against the tenant's shadow copy and times
// each request from its due time, so a server stall is charged to every
// request scheduled behind it.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/prng"
	"repro/internal/server"
	"repro/internal/workload"
)

// window is the server's default per-connection in-flight bound; the
// generator never exceeds it.
const window = 64

// maxSteps bounds the generator steps of one connection; steps are
// preallocated so the receiver never sees the slice move.
const maxSteps = 64

// maxBatch bounds ops per generated request (BATCH of 16 on write-cold,
// verify passes also use 16).
const maxBatch = 16

// fillLine writes the deterministic content of version ver of a tenant
// line: every value the generator writes can be recomputed for a read
// check from (seed, tenant, line, version) alone.
func fillLine(dst []byte, seed uint64, tenant int, line uint64, ver uint32) {
	x := seed ^ uint64(tenant)<<56 ^ line<<20 ^ uint64(ver)*0x9E3779B97F4A7C15
	for i := 0; i < len(dst); i += 8 {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		binary.LittleEndian.PutUint64(dst[i:], z^z>>31)
	}
}

// sleepFor blocks the calling thread in nanosleep(2). The Go timer
// rounds sleeps below a millisecond up to one when the process is idle,
// which would make the generator late by up to 1 ms on every request;
// the kernel's nanosleep is accurate to tens of microseconds.
func sleepFor(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// opStream returns the workload's op stream for one tenant's lines:
// the address mix and read fraction of workloads.json, seeded from the
// benchmark seed and the tenant index.
func opStream(w *Workload, seed uint64, tenant, lines int) (*workload.Stream, error) {
	pat, err := workload.ParseMix(w.Mix, workload.MixOpts{
		Lines: lines, ZipfSkew: w.ZipfSkew, Seed: seed, Label: fmt.Sprintf("perfbench-t%d", tenant),
	})
	if err != nil {
		return nil, err
	}
	return workload.NewStream(prng.NewFrom(seed, fmt.Sprintf("perfbench-rw-%d", tenant)).Uint64(),
		workload.Phase{Pattern: pat, ReadFrac: w.ReadFrac}), nil
}

// pend is one request in flight on a connection.
type pend struct {
	verb  byte
	step  int
	due   time.Duration
	nops  int
	read  [maxBatch]bool
	lines [maxBatch]uint64
	vers  [maxBatch]uint32
}

// stepStats is one connection's share of one generator step.
type stepStats struct {
	lat         []time.Duration // response time - due time, per request
	lag         []time.Duration // send time - due time, per request
	ops         int64
	reads       int64
	writes      int64
	failedOps   int64 // non-OK responses, wrong SAW counts and wrong reads
	inflightMax int64
	backlogEnd  int64 // requests outstanding when the schedule ended
}

// source fills the next request of a step.
type source func(c *genConn, p *pend)

// genConn is one pipelined connection bound to one tenant.
type genConn struct {
	nc     net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	tenant int
	lines  int
	seed   uint64
	batch  int
	clock  func() time.Duration

	// ver[l] is the version of the last value sent to tenant line l
	// (0 = never written); written by the sender only.
	ver    []uint32
	stream *workload.Stream
	seq    uint64 // warm-up cursor
	vrng   *prng.Rand

	id      uint32
	payload []byte
	data    [maxBatch][server.LineSize]byte
	ops     [maxBatch]batchOp
	// free and pending hold the connection's window pend records: free
	// ones, and sent ones awaiting their response in send order.
	free     chan *pend
	pending  chan *pend
	inflight atomic.Int64
	wg       sync.WaitGroup
	steps    []stepStats

	bytesOut, bytesIn int64
	firstErr          atomic.Value // string
	stats             server.TenantStats
	recvDone          chan struct{}
}

// dialGen connects, binds tenant with HELLO and starts the receiver.
func dialGen(addr string, tenant int, w *Workload, seed uint64, clock func() time.Duration) (*genConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &genConn{
		nc: nc, br: bufio.NewReaderSize(nc, 64<<10), bw: bufio.NewWriterSize(nc, 64<<10),
		tenant: tenant, seed: seed, batch: w.Batch, clock: clock,
		free: make(chan *pend, window), pending: make(chan *pend, window),
		recvDone: make(chan struct{}),
		steps:    make([]stepStats, maxSteps),
	}
	if err := c.hello(); err != nil {
		nc.Close()
		return nil, err
	}
	c.ver = make([]uint32, c.lines)
	if c.stream, err = opStream(w, seed, tenant, c.lines); err != nil {
		nc.Close()
		return nil, err
	}
	c.vrng = prng.NewFrom(seed, fmt.Sprintf("perfbench-verify-%d", tenant))
	for i := 0; i < window; i++ {
		c.free <- &pend{}
	}
	go c.receive()
	return c, nil
}

// hello binds the connection synchronously, before the receiver runs.
func (c *genConn) hello() error {
	c.id++
	c.payload = helloPayload(c.payload[:0], c.id, uint32(c.tenant))
	frame := appendFrame(nil, c.payload)
	if _, err := c.nc.Write(frame); err != nil {
		return err
	}
	r, _, err := readResponse(c.br, nil)
	if err != nil {
		return fmt.Errorf("hello: %w", err)
	}
	if err := errStatus(r); err != nil {
		return fmt.Errorf("hello: %w", err)
	}
	if len(r.body) != 8 {
		return fmt.Errorf("hello: %d-byte body", len(r.body))
	}
	c.lines = int(binary.BigEndian.Uint64(r.body))
	return nil
}

// close shuts the connection and waits for the receiver.
func (c *genConn) close() {
	close(c.pending)
	<-c.recvDone
	c.nc.Close()
}

func (c *genConn) fail(msg string) {
	c.firstErr.CompareAndSwap(nil, msg)
}

// errMsg returns the first failure seen on the connection, or "".
func (c *genConn) errMsg() string {
	if s, ok := c.firstErr.Load().(string); ok {
		return s
	}
	return ""
}

// loadSource draws the workload's op stream: single-op READ/WRITE
// frames when the workload batch is 1, BATCH frames otherwise.
func loadSource(c *genConn, p *pend) {
	p.nops = c.batch
	for i := 0; i < c.batch; i++ {
		line, read := c.stream.Next()
		c.setOp(p, i, line, read)
	}
	if c.batch == 1 {
		if p.read[0] {
			p.verb = server.VerbRead
		} else {
			p.verb = server.VerbWrite
		}
	} else {
		p.verb = server.VerbBatch
	}
}

// warmSource writes the footprint once in BATCH frames of maxBatch.
func warmSource(c *genConn, p *pend) {
	p.verb = server.VerbBatch
	p.nops = 0
	for p.nops < maxBatch && c.seq < uint64(c.lines) {
		c.setOp(p, p.nops, c.seq, false)
		c.seq++
		p.nops++
	}
}

// verifySource reads back random lines in BATCH frames of maxBatch.
func verifySource(c *genConn, p *pend) {
	p.verb = server.VerbBatch
	p.nops = maxBatch
	for i := 0; i < maxBatch; i++ {
		c.setOp(p, i, c.vrng.Uint64()%uint64(c.lines), true)
	}
}

// statsSource asks for the tenant's accumulated statistics.
func statsSource(c *genConn, p *pend) {
	p.verb = server.VerbStats
	p.nops = 0
}

// setOp records op i of p and advances the shadow copy for writes.
func (c *genConn) setOp(p *pend, i int, line uint64, read bool) {
	p.read[i] = read
	p.lines[i] = line
	if !read {
		c.ver[line]++
		fillLine(c.data[i][:], c.seed, c.tenant, line, c.ver[line])
	}
	p.vers[i] = c.ver[line]
}

// encode appends p's frame to the write buffer.
func (c *genConn) encode(p *pend) error {
	c.id++
	switch p.verb {
	case server.VerbWrite:
		c.payload = writePayload(c.payload[:0], c.id, p.lines[0], c.data[0][:])
	case server.VerbRead:
		c.payload = readPayload(c.payload[:0], c.id, p.lines[0])
	case server.VerbBatch:
		for i := 0; i < p.nops; i++ {
			c.ops[i] = batchOp{read: p.read[i], line: p.lines[i], data: c.data[i][:]}
		}
		c.payload = batchPayload(c.payload[:0], c.id, c.ops[:p.nops])
	case server.VerbStats:
		c.payload = statsPayload(c.payload[:0], c.id)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(c.payload)))
	if _, err := c.bw.Write(hdr[:]); err != nil {
		return err
	}
	_, err := c.bw.Write(c.payload)
	c.bytesOut += int64(4 + len(c.payload))
	return err
}

// runStep sends n requests from src, request i falling due at
// start + i*interval (interval 0: all due at once, a closed burst
// bounded by the window). It returns once every request is sent;
// waitStep waits for the responses.
func (c *genConn) runStep(step int, src source, n int, start, interval time.Duration) error {
	st := &c.steps[step]
	for i := 0; i < n; i++ {
		due := start + time.Duration(i)*interval
		if now := c.clock(); due > now {
			if err := c.bw.Flush(); err != nil {
				return err
			}
			sleepFor(due - c.clock())
		}
		var p *pend
		select {
		case p = <-c.free:
		default:
			if err := c.bw.Flush(); err != nil {
				return err
			}
			p = <-c.free
		}
		src(c, p)
		p.step, p.due = step, due
		if err := c.encode(p); err != nil {
			return err
		}
		st.lag = append(st.lag, c.clock()-due)
		if in := c.inflight.Add(1); in > st.inflightMax {
			st.inflightMax = in
		}
		c.wg.Add(1)
		c.pending <- p
	}
	st.backlogEnd = c.inflight.Load()
	return c.bw.Flush()
}

// waitStep blocks until every request sent so far has its response.
func (c *genConn) waitStep() { c.wg.Wait() }

// receive matches responses to requests in order and checks them.
// After a transport error every outstanding request counts as failed.
func (c *genConn) receive() {
	defer close(c.recvDone)
	var buf []byte
	var want [server.LineSize]byte
	broken := false
	for p := range c.pending {
		st := &c.steps[p.step]
		var r response
		var err error
		if !broken {
			r, buf, err = readResponse(c.br, buf)
			if err != nil {
				c.fail("transport: " + err.Error())
				broken = true
			}
		}
		if broken {
			st.failedOps += int64(max(p.nops, 1))
		} else {
			c.bytesIn += int64(4 + len(buf))
			st.lat = append(st.lat, c.clock()-p.due)
			st.ops += int64(p.nops)
			for i := 0; i < p.nops; i++ {
				if p.read[i] {
					st.reads++
				} else {
					st.writes++
				}
			}
			st.failedOps += int64(c.check(p, r, &want))
		}
		c.inflight.Add(-1)
		c.free <- p
		c.wg.Done()
	}
}

// check validates one response and returns how many of its ops failed.
func (c *genConn) check(p *pend, r response, want *[server.LineSize]byte) int {
	if err := errStatus(r); err != nil {
		c.fail(err.Error())
		return max(p.nops, 1)
	}
	readOK := func(i int, got []byte) bool {
		fillLine(want[:], c.seed, c.tenant, p.lines[i], p.vers[i])
		if p.vers[i] == 0 || string(got) != string(want[:]) {
			c.fail(fmt.Sprintf("tenant %d line %d: read does not match version %d", c.tenant, p.lines[i], p.vers[i]))
			return false
		}
		return true
	}
	switch p.verb {
	case server.VerbWrite:
		if len(r.body) != 4 || binary.BigEndian.Uint32(r.body) != 0 {
			c.fail("write response: unexpected body or SAW cells on a fault-free device")
			return 1
		}
	case server.VerbRead:
		if len(r.body) != server.LineSize || !readOK(0, r.body) {
			return 1
		}
	case server.VerbBatch:
		b := r.body
		if len(b) < 4 || int(binary.BigEndian.Uint32(b)) != p.nops {
			c.fail("batch response: wrong op count")
			return p.nops
		}
		off, bad := 4, 0
		for i := 0; i < p.nops; i++ {
			if off >= len(b) {
				c.fail("batch response truncated")
				return p.nops
			}
			kind := b[off]
			off++
			if p.read[i] {
				if kind != server.BatchRead || off+server.LineSize > len(b) {
					c.fail("batch response: bad read element")
					return p.nops
				}
				if !readOK(i, b[off:off+server.LineSize]) {
					bad++
				}
				off += server.LineSize
				continue
			}
			if kind != server.BatchWrite || off+4 > len(b) {
				c.fail("batch response: bad write element")
				return p.nops
			}
			if binary.BigEndian.Uint32(b[off:]) != 0 {
				c.fail("batch write reported SAW cells on a fault-free device")
				bad++
			}
			off += 4
		}
		return bad
	case server.VerbStats:
		s, err := server.ParseTenantStats(r.body)
		if err != nil {
			c.fail(err.Error())
			return 1
		}
		c.stats = s
	}
	return 0
}
