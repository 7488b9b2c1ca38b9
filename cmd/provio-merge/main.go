// Command provio-merge unifies the per-process sub-graph files of a
// provenance store into a single provenance graph (paper §5: sub-graphs are
// "parsed and merged into a complete provenance graph" after the workflow;
// GUIDs make the merge duplication-free). Pending delta segments left by
// the periodic flush pipeline are merged in as well.
//
// Usage:
//
//	provio-merge -store ./prov [-parallel N] [-compact]
//	provio-merge -store ./prov -compact -level 1
//
// The merged graph is written as prov_merged.pbs. Every path takes pbs v5
// only: a store an older build wrote, as text or in an older pbs version,
// refuses the merge, -compact and -level alike, naming the build that
// migrates it (DESIGN.md "Migrating an older store"). provio-export writes
// Turtle or N-Triples.
//
// -store accepts a directory or any store spec (dir:/path, file:/run.pvs,
// mount:hot=...,cold=...). On a mounted store, -compact additionally
// re-homes files onto their routed tiers — provio-merge -compact against
// mount:hot=dir:/old,cold=file:/new.pvs migrates a directory store into a
// single-file archive. Archive-backed stores are vacuumed after -compact so
// the container sheds superseded journal frames.
//
// -compact -level N performs LEVELED compaction instead: loose delta
// segments (and packs below level N) are folded verbatim into one level-N
// pack container whose header carries pushdown statistics, leaving canonical
// files and hash chains untouched — provio-verify against heads recorded
// before the compaction still passes. Queries then skip packs and members
// whose statistics rule them out (see provio-query -plan).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	provio "github.com/hpc-io/prov-io"
	"github.com/hpc-io/prov-io/internal/cli"
)

func main() {
	storeSpec := flag.String("store", "", cli.StoreUsage+" (required)")
	parallel := flag.Int("parallel", runtime.NumCPU(),
		"parse worker pool size for the merge (1 = sequential)")
	compact := flag.Bool("compact", false,
		"fold leftover delta segments into canonical files before merging (crash recovery)")
	level := flag.Int("level", 0,
		"with -compact: fold delta segments into a level-N pack (leveled compaction) instead of canonical files")
	flag.Parse()

	store, err := cli.OpenStore(*storeSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "provio-merge: open store: %v\n", err)
		os.Exit(1)
	}
	if *level > 0 {
		if !*compact {
			fmt.Fprintln(os.Stderr, "provio-merge: -level requires -compact")
			os.Exit(2)
		}
		// Sized before the fold, so the rate reads as bench/perf's
		// pack_mb_per_s does; best effort, the fold does not depend on it.
		total, sizeErr := store.TotalBytes()
		start := time.Now()
		name, err := store.PackSegments(*level)
		elapsed := time.Since(start)
		if err != nil {
			if errors.Is(err, provio.ErrNothingToPack) {
				fmt.Println("nothing to pack: no loose segments or lower-level packs")
				return
			}
			fmt.Fprintf(os.Stderr, "provio-merge: pack: %v\n", err)
			os.Exit(1)
		}
		levels, err := store.Levels()
		if err != nil {
			fmt.Fprintf(os.Stderr, "provio-merge: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("packed segments into %s (level %d)\n", name, *level)
		for _, li := range levels {
			fmt.Printf("  L%d: %d file(s), %d unit(s), %d bytes\n", li.Level, li.Files, li.Units, li.Bytes)
		}
		if sizeErr == nil {
			fmt.Fprintf(os.Stderr, "packed %d bytes in %s (%s)\n", total, elapsed.Round(time.Microsecond), cli.Rate(total, elapsed))
		}
		return
	}
	if *compact {
		if err := store.Compact(); err != nil {
			fmt.Fprintf(os.Stderr, "provio-merge: compact: %v\n", err)
			os.Exit(1)
		}
		// An archive-backed store accumulates superseded journal frames as
		// Compact rewrites files; reclaim them while we are at it.
		for b := any(store.Backend()); b != nil; {
			if v, ok := b.(interface{ Vacuum() error }); ok {
				if err := v.Vacuum(); err != nil {
					fmt.Fprintf(os.Stderr, "provio-merge: vacuum: %v\n", err)
					os.Exit(1)
				}
				break
			}
			in, ok := b.(interface{ Inner() any })
			if !ok {
				break
			}
			b = in.Inner()
		}
	}
	g, err := store.WriteMergedParallel(*parallel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "provio-merge: %v\n", err)
		os.Exit(1)
	}
	total, err := store.TotalBytes()
	if err != nil {
		fmt.Fprintf(os.Stderr, "provio-merge: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("merged %d triples (%d distinct subjects) from %s (%d bytes of sub-graphs, %d parse workers)\n",
		g.Len(), len(g.Subjects()), *storeSpec, total, *parallel)
}
