// Package topreco reproduces the paper's Top Reco workflow (§3.1, §6.2): a
// machine-learning pipeline for top-quark reconstruction. It reads an
// ".ini" configuration, converts ".root"-style input events into
// TFRecord-framed training/test files, trains a model whose accuracy
// depends on the configured hyperparameters and dataset preselections, and
// reconstructs top quarks from the highest scores. The provenance need is
// metadata version control: the mapping from configuration versions to
// training accuracy.
package topreco

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// iniConfig is a parsed configuration: section -> key -> value. Keys
// outside any section live under "".
type iniConfig struct {
	sections map[string]map[string]string
}

// newINI returns an empty configuration.
func newINI() *iniConfig {
	return &iniConfig{sections: map[string]map[string]string{}}
}

// Set stores a value.
func (c *iniConfig) Set(section, key, value string) {
	s, ok := c.sections[section]
	if !ok {
		s = map[string]string{}
		c.sections[section] = s
	}
	s[key] = value
}

// Get reads a value.
func (c *iniConfig) Get(section, key string) (string, bool) {
	v, ok := c.sections[section][key]
	return v, ok
}

// GetDefault reads a value with a fallback.
func (c *iniConfig) GetDefault(section, key, def string) string {
	if v, ok := c.Get(section, key); ok {
		return v
	}
	return def
}

// sortedSections returns the section names, sorted ("" first when present).
func (c *iniConfig) sortedSections() []string {
	out := make([]string, 0, len(c.sections))
	for s := range c.sections {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// sortedKeys returns a section's keys, sorted.
func (c *iniConfig) sortedKeys(section string) []string {
	s := c.sections[section]
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Len returns the total number of keys.
func (c *iniConfig) Len() int {
	n := 0
	for _, s := range c.sections {
		n += len(s)
	}
	return n
}

// parseINI parses an INI document: [sections], key = value lines, '#' and
// ';' comments, blank lines.
func parseINI(r io.Reader) (*iniConfig, error) {
	c := newINI()
	sc := bufio.NewScanner(r)
	section := ""
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == ';' {
			continue
		}
		if line[0] == '[' {
			if !strings.HasSuffix(line, "]") {
				return nil, fmt.Errorf("topreco: ini line %d: unterminated section %q", lineNo, line)
			}
			section = strings.TrimSpace(line[1 : len(line)-1])
			if section == "" {
				return nil, fmt.Errorf("topreco: ini line %d: empty section name", lineNo)
			}
			continue
		}
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return nil, fmt.Errorf("topreco: ini line %d: missing '=': %q", lineNo, line)
		}
		key = strings.TrimSpace(key)
		if key == "" {
			return nil, fmt.Errorf("topreco: ini line %d: empty key", lineNo)
		}
		c.Set(section, key, strings.TrimSpace(val))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return c, nil
}

// writeINI serializes the configuration deterministically.
func writeINI(w io.Writer, c *iniConfig) error {
	bw := bufio.NewWriter(w)
	for _, sec := range c.sortedSections() {
		if sec != "" {
			if _, err := fmt.Fprintf(bw, "[%s]\n", sec); err != nil {
				return err
			}
		}
		for _, k := range c.sortedKeys(sec) {
			v, _ := c.Get(sec, k)
			if _, err := fmt.Fprintf(bw, "%s = %s\n", k, v); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Flatten returns "section.key" -> value pairs in sorted order — the shape
// the provenance trackers record.
func (c *iniConfig) Flatten() [][2]string {
	var out [][2]string
	for _, sec := range c.sortedSections() {
		for _, k := range c.sortedKeys(sec) {
			v, _ := c.Get(sec, k)
			name := k
			if sec != "" {
				name = sec + "." + k
			}
			out = append(out, [2]string{name, v})
		}
	}
	return out
}
