package main

// The serving child process: perfbench serve --workload <name> builds
// the workload's engine and network server, prints "READY <addr>", and
// serves until its standard input closes. It then stops the server,
// closes the engine and prints one JSON line with the server's and the
// engine's counters, so the parent can read them after the run.

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"

	vcc "repro"
	"repro/internal/server"
)

// childReport is the serving child's final line.
type childReport struct {
	BusyResponses        int64     `json:"busy_responses"`
	DeviceErrorResponses int64     `json:"device_error_responses"`
	Stats                vcc.Stats `json:"stats"`
}

func serveMain(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := loadWorkload(*name)
	if err != nil {
		return err
	}
	cfg, err := memConfig(w)
	if err != nil {
		return err
	}
	mem, err := vcc.NewShardedMemory(cfg)
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{Mem: mem, Tenants: w.tenants()})
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	out := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(out, "READY %s\n", l.Addr())
	if err := out.Flush(); err != nil {
		return err
	}
	// The parent closes our stdin to stop us (or dies, which closes it too).
	_, _ = io.Copy(io.Discard, os.Stdin)
	if err := srv.Stop(); err != nil {
		return err
	}
	if err := <-done; err != nil {
		return err
	}
	mem.Close()
	rep, err := json.Marshal(childReport{
		BusyResponses:        srv.ShedRequests(),
		DeviceErrorResponses: srv.DeviceErrorResponses(),
		Stats:                mem.Stats(),
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", rep)
	return out.Flush()
}
