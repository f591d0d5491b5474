package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"repro/internal/server"
)

// goldenWire reads the request and response halves of the server's
// golden wire file, keyed by case name.
func goldenWire(t *testing.T) (reqs, resps map[string][]byte) {
	t.Helper()
	f, err := os.Open("../internal/server/testdata/golden_wire.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	reqs, resps = map[string][]byte{}, map[string][]byte{}
	var name string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(key, "#") {
			continue
		}
		switch key {
		case "name":
			name = val
		case "req", "resp":
			b, err := hex.DecodeString(val)
			if err != nil {
				t.Fatalf("%s %s: %v", name, key, err)
			}
			if key == "req" {
				reqs[name] = b
			} else {
				resps[name] = b
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return reqs, resps
}

// goldenLine is the golden file's deterministic plaintext.
func goldenLine(tag byte) []byte {
	data := make([]byte, server.LineSize)
	for i := range data {
		data[i] = tag + byte(i)*3
	}
	return data
}

// TestFramesMatchGoldenWire checks every request encoder of the
// generator byte for byte against the recorded request payloads.
func TestFramesMatchGoldenWire(t *testing.T) {
	reqs, _ := goldenWire(t)
	reads := func(lines ...uint64) []batchOp {
		var ops []batchOp
		for _, l := range lines {
			ops = append(ops, batchOp{read: true, line: l})
		}
		return ops
	}
	cases := map[string][]byte{
		"hello":              helloPayload(nil, 5, 0),
		"hello-rebind":       helloPayload(nil, 6, 1),
		"hello-bad-tenant":   helloPayload(nil, 3, 9),
		"hello-degraded":     helloPayload(nil, 1, 0),
		"write":              writePayload(nil, 7, 3, goldenLine(0x10)),
		"write-out-of-range": writePayload(nil, 10, 128, goldenLine(0x20)),
		"write-device-error": writePayload(nil, 2, 3, goldenLine(0x10)),
		"read":               readPayload(nil, 8, 3),
		"read-before-hello":  readPayload(nil, 2, 3),
		"read-device-error":  readPayload(nil, 3, 3),
		"batch": batchPayload(nil, 9, []batchOp{
			{line: 1, data: goldenLine(0x40)},
			{read: true, line: 3},
			{read: true, line: 1},
			{line: 5, data: goldenLine(0x90)},
		}),
		"batch-busy": batchPayload(nil, 4, reads(0, 1, 2, 3)),
		"stats":      statsPayload(nil, 13),
	}
	for name, got := range cases {
		want, ok := reqs[name]
		if !ok {
			t.Errorf("%s: not in the golden file", name)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: payload\n got %x\nwant %x", name, got, want)
		}
		frame := appendFrame(nil, got)
		if n := binary.BigEndian.Uint32(frame); int(n) != len(want) || !bytes.Equal(frame[4:], want) {
			t.Errorf("%s: frame prefix %d for a %d-byte payload", name, n, len(want))
		}
	}
}

// TestReadResponseGolden decodes recorded responses.
func TestReadResponseGolden(t *testing.T) {
	_, resps := goldenWire(t)
	for name, want := range map[string]struct {
		status byte
		id     uint32
		body   []byte
	}{
		"read":  {server.StatusOK, 8, goldenLine(0x10)},
		"write": {server.StatusOK, 7, []byte{0, 0, 0, 0}},
		"flush": {server.StatusOK, 14, []byte{}},
	} {
		r, _, err := readResponse(bytes.NewReader(appendFrame(nil, resps[name])), nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.status != want.status || r.id != want.id || !bytes.Equal(r.body, want.body) {
			t.Errorf("%s: got status %d id %d body %x", name, r.status, r.id, r.body)
		}
		if err := errStatus(r); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	r, _, err := readResponse(bytes.NewReader(appendFrame(nil, resps["write-out-of-range"])), nil)
	if err != nil {
		t.Fatal(err)
	}
	if errStatus(r) == nil {
		t.Error("range response not reported as an error")
	}
}
