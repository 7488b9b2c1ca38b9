// Command provio-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	provio-bench -exp all                 # every exhibit, small scale
//	provio-bench -exp fig6b -scale paper  # one exhibit at the paper's scale
//	provio-bench -exp fig9 -out ./artifacts
//
// Reports are printed as aligned text tables; experiments with artifacts
// (Figure 9's DOT graph) write them into -out.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"github.com/hpc-io/prov-io/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment ID ("+strings.Join(bench.IDs(), ", ")+") or 'all'")
	scaleFlag := flag.String("scale", "small", "experiment scale: small | paper")
	out := flag.String("out", "", "directory for generated artifacts (optional)")
	chart := flag.Bool("chart", false, "also render each report as ASCII bars")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU pprof profile of the experiment run")
	memprofile := flag.String("memprofile", "", "write a heap pprof profile after the experiment run")
	flag.Parse()

	if *list {
		for _, id := range bench.IDs() {
			fmt.Println(id)
		}
		return
	}

	var scale bench.Scale
	switch *scaleFlag {
	case "small":
		scale = bench.ScaleSmall
	case "paper":
		scale = bench.ScalePaper
	default:
		fatalf("unknown scale %q (want small|paper)", *scaleFlag)
	}

	ids := bench.IDs() // "all": paper exhibits only
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatalf("memprofile: %v", err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatalf("memprofile: %v", err)
			}
		}()
	}

	for _, id := range ids {
		id = strings.TrimSpace(id)
		rep, err := bench.Run(id, scale)
		if err != nil {
			fatalf("experiment %s: %v", id, err)
		}
		fmt.Println(rep.Render())
		if *chart {
			if c := rep.Chart(); c != "" {
				fmt.Println(c)
			}
		}
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				fatalf("mkdir %s: %v", *out, err)
			}
			path := filepath.Join(*out, rep.ID+".txt")
			if err := os.WriteFile(path, []byte(rep.Render()), 0o644); err != nil {
				fatalf("write %s: %v", path, err)
			}
			if rep.Artifact != "" {
				apath := filepath.Join(*out, rep.ArtifactName)
				if err := os.WriteFile(apath, []byte(rep.Artifact), 0o644); err != nil {
					fatalf("write %s: %v", apath, err)
				}
				fmt.Printf("artifact written: %s\n\n", apath)
			}
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "provio-bench: "+format+"\n", args...)
	os.Exit(1)
}
