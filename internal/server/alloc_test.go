//go:build !race

package server

// Measured without the race detector, whose instrumentation allocates
// on its own (the convention of the other 0-alloc guards).

import (
	"testing"

	vcc "repro"
)

// TestServedBatchAllocFree is the 0-alloc guard of the served write
// path: once a connection's slots are warm, a BATCH round trip
// allocates nothing on either side of the wire — frame prefixes are
// read into and written from reused buffers, and each slot's engine
// completion callback is built once. Per-request garbage would pile up
// between collections, so a server that got faster (and so served
// more requests per run) would grow its peak RSS with its throughput.
func TestServedBatchAllocFree(t *testing.T) {
	mem, err := vcc.NewShardedMemory(vcc.ShardedMemoryConfig{Lines: 1024, Shards: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, Config{Mem: mem, Tenants: 1})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Hello(0); err != nil {
		t.Fatal(err)
	}
	ops := make([]BatchOp, 16)
	for i := range ops {
		kind := BatchWrite
		if i%4 == 3 {
			kind = BatchRead
		}
		ops[i] = BatchOp{Kind: kind, Line: uint64(i * 7), Data: goldenLine(byte(i))}
	}
	var res []BatchResult
	batch := func() {
		if res, err = c.Batch(ops, res); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		batch() // warm every slot of the connection window
	}
	if avg := testing.AllocsPerRun(500, batch); avg != 0 {
		t.Errorf("steady-state BATCH round trip allocated %.2f times, want 0", avg)
	}
}
