package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"testing"

	vcc "repro"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_wire.txt from the live server")

// goldenConfig is the fixed engine the golden bytes were recorded
// against; any change to it (or to the wire format) is a protocol
// change and must re-record with -update.
func goldenConfig(t *testing.T) *vcc.ShardedMemory {
	t.Helper()
	mem, err := vcc.NewShardedMemory(vcc.ShardedMemoryConfig{
		Lines:  256,
		Shards: 2,
		Seed:   7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return mem
}

// startServer serves one in-process listener and returns its address.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Stop() })
	return srv, l.Addr().String()
}

// goldenRequest builds one request payload.
func goldenRequest(verb byte, id uint32, body []byte) []byte {
	p := []byte{verb}
	p = binary.BigEndian.AppendUint32(p, id)
	return append(p, body...)
}

// goldenLine fills a deterministic 64-byte plaintext.
func goldenLine(tag byte) []byte {
	data := make([]byte, LineSize)
	for i := range data {
		data[i] = tag + byte(i)*3
	}
	return data
}

// goldenScript is the recorded request sequence: every verb plus
// every error class, in an order that exercises the unbound state
// first. Replayed on a single connection, so responses are
// deterministic byte-for-byte given the fixed goldenConfig.
func goldenScript() []struct {
	name string
	req  []byte
} {
	be64 := binary.BigEndian.AppendUint64
	wbody := func(line uint64, tag byte) []byte { return append(be64(nil, line), goldenLine(tag)...) }
	batch := func() []byte {
		b := binary.BigEndian.AppendUint32(nil, 4)
		b = append(b, BatchWrite)
		b = be64(b, 1)
		b = append(b, goldenLine(0x40)...)
		b = append(b, BatchRead)
		b = be64(b, 3)
		b = append(b, BatchRead)
		b = be64(b, 1)
		b = append(b, BatchWrite)
		b = be64(b, 5)
		b = append(b, goldenLine(0x90)...)
		return b
	}
	return []struct {
		name string
		req  []byte
	}{
		{"short-header", []byte{VerbRead, 0, 0}},
		{"unknown-verb", goldenRequest(99, 1, nil)},
		{"read-before-hello", goldenRequest(VerbRead, 2, be64(nil, 3))},
		{"hello-bad-tenant", goldenRequest(VerbHello, 3, []byte{0, 0, 0, 9})},
		{"hello-malformed", goldenRequest(VerbHello, 4, []byte{0, 1})},
		{"hello", goldenRequest(VerbHello, 5, []byte{0, 0, 0, 0})},
		{"hello-rebind", goldenRequest(VerbHello, 6, []byte{0, 0, 0, 1})},
		{"write", goldenRequest(VerbWrite, 7, wbody(3, 0x10))},
		{"read", goldenRequest(VerbRead, 8, be64(nil, 3))},
		{"batch", goldenRequest(VerbBatch, 9, batch())},
		{"write-out-of-range", goldenRequest(VerbWrite, 10, wbody(128, 0x20))},
		{"write-malformed", goldenRequest(VerbWrite, 11, be64(nil, 3))},
		{"batch-too-large", goldenRequest(VerbBatch, 12, binary.BigEndian.AppendUint32(nil, 9))},
		{"stats", goldenRequest(VerbStats, 13, nil)},
		{"flush", goldenRequest(VerbFlush, 14, nil)},
	}
}

// goldenDegradedConfig is goldenConfig under deterministic failure:
// chaos at rate 1 fails every engine op even after the backend's
// retries, and a 2-op in-flight budget sheds any larger batch. Both
// degradations are timing-independent on a single synchronous
// connection, so their responses are recordable byte-for-byte.
func goldenDegradedConfig(t *testing.T) *vcc.ShardedMemory {
	t.Helper()
	mem, err := vcc.NewShardedMemory(vcc.ShardedMemoryConfig{
		Lines:  256,
		Shards: 2,
		Seed:   7,
		Chaos:  &vcc.ChaosSpec{ReadErrRate: 1, WriteErrRate: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return mem
}

// goldenDegradedScript records the resilience statuses: device-error
// responses for failing ops and a busy response for a shed batch.
func goldenDegradedScript() []struct {
	name string
	req  []byte
} {
	be64 := binary.BigEndian.AppendUint64
	batch := func() []byte {
		b := binary.BigEndian.AppendUint32(nil, 4)
		for i := 0; i < 4; i++ {
			b = append(b, BatchRead)
			b = be64(b, uint64(i))
		}
		return b
	}
	return []struct {
		name string
		req  []byte
	}{
		{"hello-degraded", goldenRequest(VerbHello, 1, []byte{0, 0, 0, 0})},
		{"write-device-error", goldenRequest(VerbWrite, 2,
			append(be64(nil, 3), goldenLine(0x10)...))},
		{"read-device-error", goldenRequest(VerbRead, 3, be64(nil, 3))},
		{"batch-busy", goldenRequest(VerbBatch, 4, batch())},
	}
}

const goldenPath = "testdata/golden_wire.txt"

// replayScript writes each request frame and collects the response
// frames over one connection.
func replayScript(t *testing.T, addr string, script []struct {
	name string
	req  []byte
}) [][]byte {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	got := make([][]byte, len(script))
	for i, step := range script {
		if _, err := nc.Write(appendFrame(nil, step.req)); err != nil {
			t.Fatalf("%s: write: %v", step.name, err)
		}
		resp, err := readFrame(br, nil)
		if err != nil {
			t.Fatalf("%s: read: %v", step.name, err)
		}
		got[i] = append([]byte(nil), resp...)
	}
	return got
}

// TestGoldenWire replays the recorded request bytes of every verb and
// error class against an in-process server over a real TCP connection
// and requires byte-identical responses. Run with -update after a
// deliberate protocol change.
func TestGoldenWire(t *testing.T) {
	mem := goldenConfig(t)
	defer mem.Close()
	_, addr := startServer(t, Config{Mem: mem, Tenants: 2, MaxBatchOps: 8})
	script := goldenScript()
	got := replayScript(t, addr, script)

	dmem := goldenDegradedConfig(t)
	defer dmem.Close()
	_, daddr := startServer(t, Config{Mem: dmem, Tenants: 2, MaxBatchOps: 8,
		MaxInflightOps: 2})
	script = append(script, goldenDegradedScript()...)
	got = append(got, replayScript(t, daddr, goldenDegradedScript())...)

	if *updateGolden {
		var sb strings.Builder
		sb.WriteString("# Golden wire-level request/response pairs (hex), recorded against\n")
		sb.WriteString("# the fixed goldenConfig engine. Regenerate: go test ./internal/server -run TestGoldenWire -update\n")
		for i, step := range script {
			fmt.Fprintf(&sb, "name %s\nreq %s\nresp %s\n", step.name,
				hex.EncodeToString(step.req), hex.EncodeToString(got[i]))
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}

	want := readGolden(t)
	for i, step := range script {
		w, ok := want[step.name]
		if !ok {
			t.Errorf("%s: missing from %s (re-record with -update?)", step.name, goldenPath)
			continue
		}
		if !bytes.Equal(w.req, step.req) {
			t.Errorf("%s: script request drifted from recorded bytes\n got %x\nwant %x", step.name, step.req, w.req)
		}
		if !bytes.Equal(w.resp, got[i]) {
			t.Errorf("%s: response drifted\n got %x\nwant %x", step.name, got[i], w.resp)
		}
	}
	if len(want) != len(script) {
		t.Errorf("golden file has %d entries, script has %d", len(want), len(script))
	}
}

type goldenEntry struct{ req, resp []byte }

// readGolden parses the name/req/resp triples of the golden file.
func readGolden(t *testing.T) map[string]goldenEntry {
	t.Helper()
	blob, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (record with -update)", err)
	}
	out := map[string]goldenEntry{}
	var name string
	var cur goldenEntry
	flush := func() {
		if name != "" {
			out[name] = cur
		}
		name, cur = "", goldenEntry{}
	}
	for ln, line := range strings.Split(string(blob), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s:%d: malformed line %q", goldenPath, ln+1, line)
		}
		switch key {
		case "name":
			flush()
			name = val
		case "req", "resp":
			b, err := hex.DecodeString(val)
			if err != nil {
				t.Fatalf("%s:%d: bad hex: %v", goldenPath, ln+1, err)
			}
			if key == "req" {
				cur.req = b
			} else {
				cur.resp = b
			}
		default:
			t.Fatalf("%s:%d: unknown key %q", goldenPath, ln+1, key)
		}
	}
	flush()
	return out
}

// TestLoopbackOracle drives the same op sequence through a 1-tenant
// server (over TCP, via the Client) and directly through an identical
// second engine, and requires bit-identical outcomes: SAW counts,
// read plaintexts, and the full engine statistics including the
// floating-point energy accumulator. The served engine carries a
// rate-0 chaos decorator the direct engine lacks — a healthy chaos
// layer must be observationally invisible end to end.
func TestLoopbackOracle(t *testing.T) {
	mkMem := func(spec *vcc.ChaosSpec) *vcc.ShardedMemory {
		mem, err := vcc.NewShardedMemory(vcc.ShardedMemoryConfig{
			Lines:  512,
			Shards: 4,
			Seed:   99,
			Chaos:  spec,
		})
		if err != nil {
			t.Fatal(err)
		}
		return mem
	}
	served, direct := mkMem(&vcc.ChaosSpec{}), mkMem(nil)
	defer served.Close()
	defer direct.Close()
	srv, addr := startServer(t, Config{Mem: served})

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	lines, err := c.Hello(0)
	if err != nil {
		t.Fatal(err)
	}
	if lines != 512 {
		t.Fatalf("1-tenant slice = %d lines, want 512", lines)
	}

	// A deterministic mixed sequence: single writes/reads plus batches.
	nextData := func(i int) []byte {
		d := make([]byte, LineSize)
		for j := range d {
			d[j] = byte(i*31 + j*7)
		}
		return d
	}
	for i := 0; i < 40; i++ {
		line := uint64(i * 13 % 512)
		data := nextData(i)
		gotSAW, err := c.Write(line, data)
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		wantSAW, err := direct.Write(int(line), data)
		if err != nil {
			t.Fatal(err)
		}
		if gotSAW != wantSAW {
			t.Fatalf("write %d: SAW %d over the wire, %d direct", i, gotSAW, wantSAW)
		}
	}
	for i := 0; i < 40; i++ {
		line := uint64(i * 13 % 512)
		got, err := c.Read(line, nil)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		want, err := direct.Read(int(line), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("read %d: wire plaintext differs from direct engine", i)
		}
	}
	// Mixed batches through VerbBatch vs direct Apply.
	for rounds := 0; rounds < 10; rounds++ {
		var bops []BatchOp
		var dops []vcc.Op
		for i := 0; i < 16; i++ {
			line := uint64((rounds*16 + i*29) % 512)
			if i%3 == 0 {
				bops = append(bops, BatchOp{Kind: BatchRead, Line: line})
				dops = append(dops, vcc.Op{Kind: vcc.OpRead, Line: int(line)})
			} else {
				data := nextData(rounds*100 + i)
				bops = append(bops, BatchOp{Kind: BatchWrite, Line: line, Data: data})
				dops = append(dops, vcc.Op{Kind: vcc.OpWrite, Line: int(line), Data: data})
			}
		}
		bres, err := c.Batch(bops, nil)
		if err != nil {
			t.Fatalf("batch %d: %v", rounds, err)
		}
		dres, err := direct.Apply(dops, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range bres {
			if bops[i].Kind == BatchWrite {
				if bres[i].SAW != dres[i].SAWCells {
					t.Fatalf("batch %d op %d: SAW %d vs %d", rounds, i, bres[i].SAW, dres[i].SAWCells)
				}
			} else if !bytes.Equal(bres[i].Data, dres[i].Data) {
				t.Fatalf("batch %d op %d: read bytes differ", rounds, i)
			}
		}
	}

	if got, want := served.Stats(), direct.Stats(); got != want {
		t.Fatalf("served engine stats differ from direct engine:\n got %+v\nwant %+v", got, want)
	}
	// The tenant's attributed stats must equal the engine totals: one
	// tenant, all traffic through the server.
	st, err := srv.TenantStats(0)
	if err != nil {
		t.Fatal(err)
	}
	es := served.Stats()
	if st.LineWrites != es.LineWrites || st.LineReads != es.LineReads ||
		st.SAWCells != es.SAWCells || st.EnergyPJ != es.EnergyPJ {
		t.Fatalf("tenant stats %+v do not reconcile with engine stats %+v", st, es)
	}
}
