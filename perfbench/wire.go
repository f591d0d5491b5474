package main

// Request frame encoding for the load generator. It is written against
// the protocol description in internal/server (proto.go) rather than
// reusing server.Client, because the generator pipelines many requests
// per connection while Client keeps one in flight; wire_test.go checks
// every encoder byte for byte against the server's golden wire file.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/server"
)

// appendFrame appends payload to dst behind its 4-byte big-endian
// length prefix.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// appendHeader appends verb(1) + id(4).
func appendHeader(dst []byte, verb byte, id uint32) []byte {
	dst = append(dst, verb)
	return binary.BigEndian.AppendUint32(dst, id)
}

// helloPayload appends a HELLO payload binding the connection to tenant.
func helloPayload(dst []byte, id uint32, tenant uint32) []byte {
	dst = appendHeader(dst, server.VerbHello, id)
	return binary.BigEndian.AppendUint32(dst, tenant)
}

// writePayload appends a single-line WRITE payload.
func writePayload(dst []byte, id uint32, line uint64, data []byte) []byte {
	dst = appendHeader(dst, server.VerbWrite, id)
	dst = binary.BigEndian.AppendUint64(dst, line)
	return append(dst, data...)
}

// readPayload appends a single-line READ payload.
func readPayload(dst []byte, id uint32, line uint64) []byte {
	dst = appendHeader(dst, server.VerbRead, id)
	return binary.BigEndian.AppendUint64(dst, line)
}

// batchOp is one element of a BATCH request.
type batchOp struct {
	read bool
	line uint64
	data []byte // write payload; ignored for reads
}

// batchPayload appends a BATCH payload carrying ops in order.
func batchPayload(dst []byte, id uint32, ops []batchOp) []byte {
	dst = appendHeader(dst, server.VerbBatch, id)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(ops)))
	for _, op := range ops {
		if op.read {
			dst = append(dst, server.BatchRead)
			dst = binary.BigEndian.AppendUint64(dst, op.line)
			continue
		}
		dst = append(dst, server.BatchWrite)
		dst = binary.BigEndian.AppendUint64(dst, op.line)
		dst = append(dst, op.data...)
	}
	return dst
}

// statsPayload appends a STATS payload.
func statsPayload(dst []byte, id uint32) []byte {
	return appendHeader(dst, server.VerbStats, id)
}

// response is one decoded response frame.
type response struct {
	status byte
	id     uint32
	body   []byte // aliases the read buffer until the next readResponse
}

// readResponse reads one length-prefixed response frame into buf.
func readResponse(r io.Reader, buf []byte) (response, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return response{}, buf, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n < 5 || n > server.MaxFrame {
		return response{}, buf, fmt.Errorf("response frame of %d bytes", n)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return response{}, buf, fmt.Errorf("short response frame: %w", err)
	}
	return response{status: buf[0], id: binary.BigEndian.Uint32(buf[1:5]), body: buf[5:]}, buf, nil
}

// errStatus reports a non-OK response.
func errStatus(r response) error {
	if r.status == server.StatusOK {
		return nil
	}
	return errors.New(server.StatusName(r.status) + ": " + string(r.body))
}
