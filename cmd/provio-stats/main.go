// Command provio-stats derives I/O statistics from a provenance store — the
// Darshan-style view of the paper's H5bench use case, answered entirely from
// the provenance: operation counts per API, accumulated time per API
// (bottleneck analysis, when the store was collected with duration
// tracking), and the hottest data objects.
//
// Usage:
//
//	provio-stats -store ./prov
//
// The report opens with the store's physical layout: per-level file/unit/byte
// counts (L0 = loose flush segments, L1+ = compacted packs) and the scan line
// of the merge that fed the statistics (segments decoded vs skipped).
//
// -cache-bytes N (N > 0) feeds the statistics through an out-of-core view
// instead of an eager merge: units are decoded through a cache bounded by N
// bytes, and each layout line gains the view's decoded/resident byte
// breakdown — the sizing input for picking a provio-query -cache-bytes
// budget. Every unit is decoded once, so the decoded column is the whole
// footprint at any budget; one larger than that keeps every unit resident.
// The scan line then also carries the cache's hit ratio.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/hpc-io/prov-io/internal/cli"
	"github.com/hpc-io/prov-io/internal/stats"
)

func main() {
	storeSpec := flag.String("store", "", cli.StoreUsage+" (required)")
	cacheBytes := flag.Int64("cache-bytes", 0, "derive statistics through an out-of-core view whose cache holds this many bytes (0 = merge up front)")
	flag.Parse()
	store, err := cli.OpenStore(*storeSpec)
	if err != nil {
		fatalf("%v", err)
	}
	levels, err := store.Levels()
	if err != nil {
		fatalf("%v", err)
	}

	src, err := cli.OpenSource(store, nil, 2, *cacheBytes)
	if err != nil {
		fatalf("%v", err)
	}
	g, scan, err := src.Graph()
	if err != nil {
		fatalf("%v", err)
	}
	residency := src.Residency()

	fmt.Println("store layout")
	for _, li := range levels {
		kind := "pack(s)"
		if li.Level == 0 {
			kind = "file(s)"
		}
		fmt.Printf("  L%d: %d %s, %d unit(s), %d bytes", li.Level, li.Files, kind, li.Units, li.Bytes)
		if lr, ok := residency[li.Level]; ok {
			fmt.Printf(" | decoded %d bytes, resident %d/%d unit(s) (%d bytes)",
				lr.DecodedBytes, lr.ResidentUnits, lr.Units, lr.ResidentBytes)
		}
		fmt.Println()
	}
	fmt.Printf("  scan: %s\n\n", scan)
	if err := stats.Compute(g).WriteWithAgents(os.Stdout, g); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "provio-stats: "+format+"\n", args...)
	os.Exit(1)
}
