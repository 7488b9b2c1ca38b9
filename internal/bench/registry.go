package bench

import (
	"fmt"
	"sort"
	"strings"
)

// registry maps experiment IDs to the runners that execute them at a scale.
var registry = map[string]func(Scale) (*Report, error){
	"table1": Table1,
	"table2": Table2,
	"table3": Table3,
	"table4": Table4,
	"table5": Table5,
	"fig6a":  Fig6a,
	"fig6b":  Fig6b,
	"fig6c":  Fig6c,
	"fig6d":  Fig6d,
	"fig6e":  Fig6e,
	"fig7a":  Fig7a,
	"fig7b":  Fig7b,
	"fig7c":  Fig7c,
	"fig7d":  Fig7d,
	"fig7e":  Fig7e,
	"fig8":   Fig8,
	"fig9":   Fig9,

	// Virtual-clock ablations of the paper's §4.2/§4.3/§5 design choices (not
	// paper exhibits; excluded from 'all'). Wall-clock, per-layer measurements
	// live in bench/perf.
	"abl-flush":       AblationFlush,
	"abl-pipeline":    AblationPipeline,
	"abl-granularity": AblationGranularity,
	"abl-format":      AblationFormat,
	"abl-guid":        AblationGUIDMerge,
}

// order lists experiment IDs in presentation order.
var order = []string{
	"table1", "table2", "table3", "table4",
	"fig6a", "fig6b", "fig6c", "fig6d", "fig6e",
	"fig7a", "fig7b", "fig7c", "fig7d", "fig7e",
	"fig8", "table5", "fig9",
}

// IDs returns every experiment ID in presentation order.
func IDs() []string {
	out := make([]string, len(order))
	copy(out, order)
	return out
}

// Run executes one experiment by ID.
func Run(id string, s Scale) (*Report, error) {
	r, ok := registry[id]
	if !ok {
		if strings.HasPrefix(id, "abl-") {
			return nil, fmt.Errorf("bench: %q is not an experiment; wall-clock and per-layer measurements are bench/perf rows (see bench/perf/README.md)", id)
		}
		known := make([]string, 0, len(registry))
		for k := range registry {
			known = append(known, k)
		}
		sort.Strings(known)
		return nil, fmt.Errorf("bench: unknown experiment %q (known: %v)", id, known)
	}
	return r(s)
}
