// Package server exposes a vcc.ShardedMemory as a multi-tenant
// line-store network service.
//
// The wire format is length-prefixed binary frames over TCP. Every
// frame is a big-endian uint32 payload length followed by the payload;
// request payloads are verb(1) + id(4, echoed verbatim in the
// response) + verb-specific body, response payloads are status(1) +
// id(4) + body. A thin HTTP/JSON front (see HTTPHandler) wraps the
// same engine path for debuggability.
//
// Tenants partition the line address space into disjoint equal slices;
// clients address lines tenant-relatively, and the server rejects
// anything outside the tenant's slice with StatusRange. A connection
// binds to its tenant with VerbHello before issuing data verbs.
package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// LineSize is the fixed service line payload size in bytes.
const LineSize = 64

// MaxFrame bounds a single frame payload; oversized length prefixes
// are rejected before any allocation (StatusTooLarge).
const MaxFrame = 1 << 20

// DefaultMaxBatchOps bounds ops per VerbBatch frame when
// Config.MaxBatchOps is zero.
const DefaultMaxBatchOps = 1024

// Request verbs.
const (
	// VerbHello binds the connection to a tenant. Body: uint32 tenant
	// index. OK response body: uint64 tenant slice size in lines.
	VerbHello = byte(1)
	// VerbWrite stores one line. Body: uint64 tenant-relative line +
	// LineSize data bytes. OK response body: uint32 stuck-at-wrong
	// cell count.
	VerbWrite = byte(2)
	// VerbRead fetches one line. Body: uint64 tenant-relative line.
	// OK response body: LineSize data bytes.
	VerbRead = byte(3)
	// VerbBatch carries a mixed op sequence applied in order. Body:
	// uint32 count, then per op kind(1: 0=write, 1=read) + uint64
	// line + (LineSize data if write). OK response body: uint32 count,
	// then per op kind(1) + (uint32 saw if write | LineSize data if
	// read).
	VerbBatch = byte(4)
	// VerbStats fetches the tenant's accumulated statistics. Empty
	// body. OK response body: TenantStats.AppendBinary layout.
	VerbStats = byte(5)
	// VerbFlush forces deferred write-back state to the devices,
	// covering everything this connection submitted before it. Empty
	// body and empty OK response body.
	VerbFlush = byte(6)
)

// Batch op kinds (match shard.OpWrite / shard.OpRead).
const (
	// BatchWrite is a write element in a VerbBatch body.
	BatchWrite = byte(0)
	// BatchRead is a read element in a VerbBatch body.
	BatchRead = byte(1)
)

// Response status codes. Non-OK responses carry a human-readable
// message as their body and never kill the connection (the lone
// exception: a frame whose length prefix exceeds MaxFrame cannot be
// skipped, so the connection closes after the StatusTooLarge reply).
const (
	// StatusOK is a successful response.
	StatusOK = byte(0)
	// StatusMalformed reports a request body that does not parse.
	StatusMalformed = byte(1)
	// StatusUnknownVerb reports an unrecognized verb byte.
	StatusUnknownVerb = byte(2)
	// StatusNoTenant reports a data verb before VerbHello.
	StatusNoTenant = byte(3)
	// StatusBadTenant reports an out-of-range tenant index, or an
	// attempt to rebind an already-bound connection.
	StatusBadTenant = byte(4)
	// StatusRange reports a line outside the tenant's slice.
	StatusRange = byte(5)
	// StatusShutdown reports a request arriving after Server.Close.
	StatusShutdown = byte(6)
	// StatusTooLarge reports a frame exceeding MaxFrame or a batch
	// exceeding the server's op bound.
	StatusTooLarge = byte(7)
	// StatusDeviceError reports a request whose engine ops still failed
	// after the controller's bounded retries. The device work happened
	// (and is accounted to the tenant); the data must not be trusted.
	// The connection stays alive and writes may be safely reissued.
	StatusDeviceError = byte(8)
	// StatusBusy reports a request shed by admission control: the
	// server's in-flight op budget is exhausted and nothing was
	// submitted to the engine. Retry after a backoff; the connection
	// stays alive.
	StatusBusy = byte(9)
)

// StatusName returns a stable mnemonic for a response status code.
func StatusName(s byte) string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusMalformed:
		return "malformed"
	case StatusUnknownVerb:
		return "unknown-verb"
	case StatusNoTenant:
		return "no-tenant"
	case StatusBadTenant:
		return "bad-tenant"
	case StatusRange:
		return "range"
	case StatusShutdown:
		return "shutdown"
	case StatusTooLarge:
		return "too-large"
	case StatusDeviceError:
		return "device-error"
	case StatusBusy:
		return "busy"
	default:
		return fmt.Sprintf("status-%d", s)
	}
}

// reqHeaderLen is verb(1) + id(4); response headers share the shape.
const reqHeaderLen = 5

// errFrameTooLarge aborts a connection whose peer announced a frame
// the server refuses to buffer.
var errFrameTooLarge = errors.New("server: frame exceeds MaxFrame")

// readFrame reads one length-prefixed frame into buf (grown as
// needed) and returns the payload. io.EOF is returned only on a clean
// boundary (no bytes of the next frame read).
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	// The length prefix is read into buf itself: a local array would
	// escape through the io.Reader call and cost an allocation a frame.
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(buf[:4])
	if n > MaxFrame {
		return nil, errFrameTooLarge
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("server: short frame: %w", err)
	}
	return buf, nil
}

// appendFrame appends the 4-byte length prefix and payload to dst.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// writeFrame writes one length-prefixed frame. The prefix is built in
// w's free buffer space, so writing a frame allocates nothing.
func writeFrame(w *bufio.Writer, payload []byte) error {
	if _, err := w.Write(binary.BigEndian.AppendUint32(w.AvailableBuffer(), uint32(len(payload)))); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// TenantStats is the per-tenant accounting snapshot served by
// VerbStats: every field is attributed exactly to the submissions of
// connections bound to that tenant (via the engine's per-ticket stat
// deltas), so concurrent tenants — and engine-wide ResetStats — never
// bleed into each other's numbers. Ops counts data requests admitted
// by the server; the remaining fields mirror vcc.Stats semantics.
type TenantStats struct {
	Ops         int64   `json:"ops"`
	LineWrites  int64   `json:"line_writes"`
	LineReads   int64   `json:"line_reads"`
	SAWCells    int64   `json:"saw_cells"`
	BitFlips    int64   `json:"bit_flips"`
	CellChanges int64   `json:"cell_changes"`
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
	EnergyPJ    float64 `json:"energy_pj"`
}

// tenantStatsWireLen is the fixed AppendBinary size: 8 int64 fields
// plus one float64, all big-endian.
const tenantStatsWireLen = 9 * 8

// AppendBinary appends the fixed-width big-endian wire encoding.
func (t TenantStats) AppendBinary(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(t.Ops))
	dst = binary.BigEndian.AppendUint64(dst, uint64(t.LineWrites))
	dst = binary.BigEndian.AppendUint64(dst, uint64(t.LineReads))
	dst = binary.BigEndian.AppendUint64(dst, uint64(t.SAWCells))
	dst = binary.BigEndian.AppendUint64(dst, uint64(t.BitFlips))
	dst = binary.BigEndian.AppendUint64(dst, uint64(t.CellChanges))
	dst = binary.BigEndian.AppendUint64(dst, uint64(t.CacheHits))
	dst = binary.BigEndian.AppendUint64(dst, uint64(t.CacheMisses))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(t.EnergyPJ))
	return dst
}

// ParseTenantStats decodes an AppendBinary payload.
func ParseTenantStats(b []byte) (TenantStats, error) {
	if len(b) != tenantStatsWireLen {
		return TenantStats{}, fmt.Errorf("server: tenant stats body is %d bytes, want %d", len(b), tenantStatsWireLen)
	}
	u := func(i int) int64 { return int64(binary.BigEndian.Uint64(b[i*8:])) }
	return TenantStats{
		Ops:         u(0),
		LineWrites:  u(1),
		LineReads:   u(2),
		SAWCells:    u(3),
		BitFlips:    u(4),
		CellChanges: u(5),
		CacheHits:   u(6),
		CacheMisses: u(7),
		EnergyPJ:    math.Float64frombits(binary.BigEndian.Uint64(b[8*8:])),
	}, nil
}

// Add folds o into t field-wise.
func (t *TenantStats) Add(o TenantStats) {
	t.Ops += o.Ops
	t.LineWrites += o.LineWrites
	t.LineReads += o.LineReads
	t.SAWCells += o.SAWCells
	t.BitFlips += o.BitFlips
	t.CellChanges += o.CellChanges
	t.CacheHits += o.CacheHits
	t.CacheMisses += o.CacheMisses
	t.EnergyPJ += o.EnergyPJ
}
