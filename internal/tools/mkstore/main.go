// Command mkstore writes a small demonstration provenance store: one
// completed run (sealed canonical file from Close) plus one periodic run left
// as sealed delta segments (Drain without Compact). CI's integrity smoke test
// and the README examples use it to get a real on-disk store without a full
// workload; it is internal tooling, not part of the shipped CLI set.
//
// Usage:
//
//	go run ./internal/tools/mkstore -dir ./prov [-records N]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	provio "github.com/hpc-io/prov-io"
)

func main() {
	dir := flag.String("dir", "", "store directory or spec to create (required; dir:/path | file:/run.pvs | mount:hot=...,cold=...)")
	records := flag.Int("records", 24, "I/O records per run")
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "mkstore: -dir is required")
		os.Exit(1)
	}
	if err := build(*dir, *records); err != nil {
		fmt.Fprintf(os.Stderr, "mkstore: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("mkstore: wrote pbs store to %s\n", *dir)
}

func build(spec string, records int) error {
	store, err := provio.OpenStore(spec, provio.FormatBinary)
	if err != nil {
		return err
	}

	// Run 1: a full tracked run, folded into a sealed canonical file by Close.
	tr := provio.NewTracker(provio.DefaultConfig(), store, 0)
	user := tr.RegisterUser("demo-user")
	prog := tr.RegisterProgram("demo.exe", user)
	for i := 0; i < records; i++ {
		obj := tr.TrackDataObject(provio.ModelFile, fmt.Sprintf("/data/f%d", i%8), "", provio.Term{}, prog)
		tr.TrackIO(provio.ModelWrite, "H5Dwrite", obj, prog, time.Duration(i)*time.Millisecond, 0)
	}
	if err := tr.Close(); err != nil {
		return err
	}

	// Run 2: a periodic run drained mid-flight, leaving sealed delta segments
	// on disk so the store exercises the whole chain shape.
	cfg := provio.DefaultConfig()
	cfg.Mode = provio.ModePeriodic
	cfg.FlushEvery = records/3 + 1
	tr = provio.NewTracker(cfg, store, 0)
	for i := 0; i < records; i++ {
		tr.TrackIO(provio.ModelRead, "H5Dread", provio.Term{}, provio.Term{},
			time.Duration(i)*time.Millisecond, 0)
	}
	return tr.Drain()
}
