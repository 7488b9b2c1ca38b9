// Package core implements the PROV-IO Library (paper §4.2/§5): the
// configurable provenance tracker that the VOL connector, the POSIX syscall
// wrapper, and the user-facing PROV-IO APIs all feed, the provenance store
// that persists per-process sub-graphs, and the merge step that unifies
// sub-graphs after a run.
package core

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/hpc-io/prov-io/internal/model"
)

// Format names the store's write codec. There is one, pbs (DESIGN.md "Store
// codecs"), and it is the zero Format: NewStore refuses any other value.
// Text leaves the store through provio-export.
type Format uint8

// FormatBinary is the ID-space binary segment format (.pbs): dictionary-delta
// blocks plus varint-encoded triple ID columns, so flushes render no term
// text and merges re-parse none.
const FormatBinary Format = 0

// Mode selects when the in-memory sub-graph is serialized (paper §4.2: "the
// serialization operation may be triggered either periodically or by the end
// of the workflow").
type Mode uint8

// Serialization modes.
const (
	// ModeAtEnd serializes once, on Close/Flush.
	ModeAtEnd Mode = iota
	// ModePeriodic serializes every FlushEvery records.
	ModePeriodic
)

// Pipeline selects how a periodic flush reaches the store (DESIGN.md "Flush
// pipeline"). The paper's prototype overlaps periodic serialization with
// computation; PipelineAsync is the faithful (and default) rendering.
type Pipeline uint8

// Flush pipelines.
const (
	// PipelineAsync snapshots the delta since the last flush and hands it
	// to a per-tracker background writer over a bounded queue; the writer
	// appends it to the store as a delta segment. The hot path
	// pays only the handoff, plus backpressure when the queue is full.
	PipelineAsync Pipeline = iota
	// PipelineDelta writes the delta segment inline on the tracking thread.
	PipelineDelta
	// PipelineInline re-serializes the entire sub-graph inline on every
	// periodic flush (the original behavior; kept for comparison).
	PipelineInline
)

// String names the pipeline.
func (p Pipeline) String() string {
	switch p {
	case PipelineDelta:
		return "delta"
	case PipelineInline:
		return "inline"
	default:
		return "async"
	}
}

// Config selects which PROV-IO model sub-classes are tracked and how the
// provenance is persisted. This is the paper's User Engine switchboard:
// "allows users to enable/disable individual sub-classes defined in the
// PROV-IO model", enabling the completeness/overhead tradeoff.
type Config struct {
	// enabled holds per-sub-class switches keyed by model class name.
	enabled map[string]bool
	// Duration additionally tracks per-I/O-API elapsed time (the paper's
	// H5bench usage scenario 2).
	Duration bool

	// Format is the store codec; pbs, its zero value, is the only one.
	Format Format
	Mode   Mode
	// FlushEvery triggers a periodic flush after this many records when
	// Mode is ModePeriodic.
	FlushEvery int
	// Pipeline selects how periodic flushes reach the store.
	Pipeline Pipeline
}

// flushQueue bounds the async pipeline's writer queue, in delta segments.
const flushQueue = 4

// DefaultConfig enables every sub-class, at-end flushing.
func DefaultConfig() *Config {
	c := &Config{
		enabled:    make(map[string]bool),
		Mode:       ModeAtEnd,
		FlushEvery: 4096,
		Pipeline:   PipelineAsync,
	}
	for _, cls := range model.AllClasses() {
		c.enabled[cls.Name] = true
	}
	return c
}

// Enable turns on tracking for the named sub-classes.
func (c *Config) Enable(names ...string) *Config {
	for _, n := range names {
		c.enabled[n] = true
	}
	return c
}

// Disable turns off tracking for the named sub-classes.
func (c *Config) Disable(names ...string) *Config {
	for _, n := range names {
		c.enabled[n] = false
	}
	return c
}

// DisableAll turns off every sub-class (callers then Enable selectively,
// like the paper's per-scenario configurations).
func (c *Config) DisableAll() *Config {
	for n := range c.enabled {
		c.enabled[n] = false
	}
	c.Duration = false
	return c
}

// Enabled reports whether a sub-class is tracked.
func (c *Config) Enabled(class model.Class) bool { return c.enabled[class.Name] }

// EnabledClasses returns the names of all enabled sub-classes in Table 2
// order.
func (c *Config) EnabledClasses() []string {
	var out []string
	for _, cls := range model.AllClasses() {
		if c.enabled[cls.Name] {
			out = append(out, cls.Name)
		}
	}
	return out
}

// LoadConfig parses the PROV-IO configuration file format: one "key = value"
// per line, '#' comments. Recognized keys:
//
//	mode        = at_end | periodic
//	flush_every = 4096
//	pipeline    = async | delta | inline
//	duration    = on | off
//	track       = Class[,Class...]     (exclusive allow-list)
//	enable      = Class[,Class...]
//	disable     = Class[,Class...]
//
// This is the "configuration file" transparency mechanism Table 4 credits
// PROV-IO with: users select provenance features without touching workflow
// source. A line naming one of goneKeys is an error that says where its
// setting went.
func LoadConfig(r io.Reader) (*Config, error) {
	cfg := DefaultConfig()
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return nil, fmt.Errorf("core: config line %d: missing '=': %q", lineNo, line)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		if why, ok := goneKeys[key]; ok {
			return nil, fmt.Errorf("core: config line %d: key %s is gone: %s", lineNo, key, why)
		}
		switch key {
		case "mode":
			switch val {
			case "at_end":
				cfg.Mode = ModeAtEnd
			case "periodic":
				cfg.Mode = ModePeriodic
			default:
				return nil, fmt.Errorf("core: config line %d: unknown mode %q", lineNo, val)
			}
		case "flush_every":
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("core: config line %d: bad flush_every %q", lineNo, val)
			}
			cfg.FlushEvery = n
		case "pipeline":
			switch val {
			case "async":
				cfg.Pipeline = PipelineAsync
			case "delta":
				cfg.Pipeline = PipelineDelta
			case "inline":
				cfg.Pipeline = PipelineInline
			default:
				return nil, fmt.Errorf("core: config line %d: unknown pipeline %q", lineNo, val)
			}
		case "duration":
			switch val {
			case "on", "true":
				cfg.Duration = true
			case "off", "false":
				cfg.Duration = false
			default:
				return nil, fmt.Errorf("core: config line %d: bad duration %q", lineNo, val)
			}
		case "track", "enable", "disable":
			names := strings.Split(val, ",")
			if key == "track" {
				// track resets the class allow-list; the standalone
				// duration switch is preserved unless the list names it.
				dur := cfg.Duration
				cfg.DisableAll()
				cfg.Duration = dur
			}
			for _, n := range names {
				n = strings.TrimSpace(n)
				if n == "" {
					continue
				}
				if n == "Duration" {
					cfg.Duration = key != "disable"
					continue
				}
				if _, ok := model.ClassByName(n); !ok {
					return nil, fmt.Errorf("core: config line %d: unknown class %q", lineNo, n)
				}
				if key == "disable" {
					cfg.Disable(n)
				} else {
					cfg.Enable(n)
				}
			}
		default:
			return nil, fmt.Errorf("core: config line %d: unknown key %q", lineNo, key)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// goneKeys are the keys older builds read, each with where its setting went.
var goneKeys = map[string]string{
	"format":      "the store writes pbs only (provio-export -o FILE.ttl or FILE.nt writes text)",
	"store":       storeChosen,
	"store_dir":   storeChosen,
	"flush_queue": "the async writer's queue holds " + strconv.Itoa(flushQueue) + " delta segments",
}

const storeChosen = "the store is chosen where it is opened (OpenStore's spec, or a tool's -store)"

// ScenarioConfig builds the configurations used throughout the paper's
// evaluation (Table 3). It starts from everything-off and enables exactly
// the listed classes.
func ScenarioConfig(duration bool, classes ...string) *Config {
	cfg := DefaultConfig().DisableAll()
	cfg.Enable(classes...)
	cfg.Duration = duration
	return cfg
}
