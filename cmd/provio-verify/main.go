// Command provio-verify audits the integrity of a provenance store: every
// file must decode as pbs v5 (frames, CRCs) and carry a seal that matches
// its bytes, and each process's files must form one continuous hash chain
// (DESIGN.md "Integrity & fault injection"). A store holding a file only an
// older build wrote is refused (exit 1) with the build that migrates it
// (DESIGN.md "Migrating an older store").
//
// Usage:
//
//	provio-verify -store ./prov [-q] \
//	    [-write-heads heads.txt] [-heads heads.txt]
//	provio-verify -selftest
//
// -write-heads records each process's chain head (the SHA-256 of its newest
// authenticated file) after a run; -heads re-verifies against a recorded
// anchor, which additionally catches deletion of a chain's newest files and
// whole processes spliced in or removed — manipulations that are locally
// self-consistent. -selftest runs the deterministic crash-consistency sweep
// over every backend kind.
//
// -store accepts a directory or any store spec (dir:/path, file:/run.pvs,
// mount:hot=...,cold=...), so an archive or a mounted hot/cold store audits
// with the same exit-code contract as a plain directory.
//
// The exit code classifies the worst finding:
//
//	0  clean
//	1  operational error (unreadable store, a store that needs migration,
//	   bad flags, failed selftest)
//	2  tampered   — content contradicts a seal or the chain
//	3  truncated  — a file is a strict prefix of its sealed form (a file
//	   without its seal included)
//	4  missing    — the chain references a file that is gone
//	5  orphaned   — a store file name no read decodes
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	provio "github.com/hpc-io/prov-io"
	"github.com/hpc-io/prov-io/internal/cli"
)

// Exit codes, keyed by the worst defect kind found.
const (
	exitClean       = 0
	exitOperational = 1
	exitTampered    = 2
	exitTruncated   = 3
	exitMissing     = 4
	exitOrphaned    = 5
)

func exitCode(worst provio.DefectKind) int {
	switch worst {
	case provio.DefectTampered:
		return exitTampered
	case provio.DefectTruncated:
		return exitTruncated
	case provio.DefectMissing:
		return exitMissing
	case provio.DefectOrphaned:
		return exitOrphaned
	}
	return exitClean
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("provio-verify", flag.ContinueOnError)
	fl.SetOutput(stderr)
	storeSpec := fl.String("store", "", cli.StoreUsage+" (required)")
	quiet := fl.Bool("q", false, "print defects only")
	writeHeads := fl.String("write-heads", "", "record the per-process chain heads to this file")
	headsPath := fl.String("heads", "", "verify against chain heads recorded by -write-heads")
	selftest := fl.Bool("selftest", false, "run the deterministic crash-consistency sweep and exit")
	if err := fl.Parse(args); err != nil {
		return exitOperational
	}

	if *selftest {
		return runSelftest(stdout, stderr)
	}
	store, err := cli.OpenStore(*storeSpec)
	if err != nil {
		fmt.Fprintf(stderr, "provio-verify: open store: %v\n", err)
		return exitOperational
	}

	var rep *provio.VerifyReport
	start := time.Now()
	if *headsPath != "" {
		data, err := os.ReadFile(*headsPath)
		if err != nil {
			fmt.Fprintf(stderr, "provio-verify: %v\n", err)
			return exitOperational
		}
		heads, err := provio.ParseHeads(data)
		if err != nil {
			fmt.Fprintf(stderr, "provio-verify: %v\n", err)
			return exitOperational
		}
		rep, err = store.VerifyAgainst(heads)
		if err != nil {
			fmt.Fprintf(stderr, "provio-verify: %v\n", err)
			return exitOperational
		}
	} else {
		rep, err = store.Verify()
		if err != nil {
			fmt.Fprintf(stderr, "provio-verify: %v\n", err)
			return exitOperational
		}
	}
	elapsed := time.Since(start)
	if *writeHeads != "" {
		if err := os.WriteFile(*writeHeads, rep.FormatHeads(), 0o644); err != nil {
			fmt.Fprintf(stderr, "provio-verify: %v\n", err)
			return exitOperational
		}
	}

	if !*quiet {
		fmt.Fprintf(stdout, "%s: %d processes, %d files (%d sealed, %d segments, %d packs) [backend: %s]\n",
			rep.Dir, rep.Processes, rep.Files, rep.Sealed, rep.Segments, rep.Packs,
			provio.CapsString(store.Backend().Caps()))
		// The audit rate, as bench/perf reports it (verify_mb_per_s). Sizing
		// the store is best effort: the audit's verdict stands without it.
		if total, err := store.TotalBytes(); err == nil {
			fmt.Fprintf(stderr, "audited %d bytes in %s (%s)\n", total, elapsed.Round(time.Microsecond), cli.Rate(total, elapsed))
		}
	}
	for _, d := range rep.Defects {
		fmt.Fprintln(stdout, d)
	}
	if len(rep.Defects) == 0 {
		if !*quiet {
			fmt.Fprintln(stdout, "clean")
		}
		return exitClean
	}
	return exitCode(rep.Worst())
}

func runSelftest(stdout, stderr io.Writer) int {
	// The fault-injecting VFS backend, then each real backend kind.
	fail := false
	for _, backend := range []string{"vfs", "mem", "file", "mount"} {
		rep, err := provio.RunCrashSweep(provio.CrashSweepConfig{Seed: 1, Torn: true, Backend: backend})
		if err != nil {
			fmt.Fprintf(stderr, "provio-verify: selftest %s: %v\n", backend, err)
			return exitOperational
		}
		fmt.Fprintf(stdout, "%s pbs %s\n", backend, rep)
		for _, v := range rep.Violations {
			fmt.Fprintf(stderr, "provio-verify: %s\n", v)
			fail = true
		}
	}
	if fail {
		return exitOperational
	}
	return exitClean
}
