package topreco

import (
	"io"
	"strings"
	"testing"

	"github.com/hpc-io/prov-io/internal/core"
	"github.com/hpc-io/prov-io/internal/posixio"
	"github.com/hpc-io/prov-io/internal/vfs"
)

// FuzzTFRecordReader feeds arbitrary bytes to the TFRecord reader: it must
// never panic or over-read, and must reject anything whose checksums do not
// match.
func FuzzTFRecordReader(f *testing.F) {
	// Seed with a valid single-record file.
	view := vfs.NewStore().NewView()
	tr := core.NewTracker(core.DefaultConfig().DisableAll(), nil, 0)
	pfs := posixio.Wrap(view, tr, posixio.Agent{}, posixio.Options{Disabled: true})
	w, _ := newTFRecordWriter(pfs, "/seed")
	w.Write([]byte("seed-record"))
	w.Close()
	seed, _ := view.ReadFile("/seed")
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(make([]byte, 16))

	f.Fuzz(func(t *testing.T, data []byte) {
		view := vfs.NewStore().NewView()
		view.WriteFile("/in", data)
		tr := core.NewTracker(core.DefaultConfig().DisableAll(), nil, 0)
		pfs := posixio.Wrap(view, tr, posixio.Agent{}, posixio.Options{Disabled: true})
		r, err := newTFRecordReader(pfs, "/in")
		if err != nil {
			t.Fatalf("open in-memory file: %v", err)
		}
		defer r.Close()
		for i := 0; i < 1000; i++ {
			rec, err := r.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				return // rejection is fine
			}
			_ = rec
		}
	})
}

// FuzzParseINI shakes the INI parser: no panics, and accepted documents
// round-trip through writeINI with the same key count.
func FuzzParseINI(f *testing.F) {
	f.Add("[model]\nlearning_rate = 0.1\n")
	f.Add("key = value\n# comment\n[s]\nk=v")
	f.Add("")
	f.Fuzz(func(t *testing.T, doc string) {
		ini, err := parseINI(strings.NewReader(doc))
		if err != nil {
			return
		}
		var sb strings.Builder
		if err := writeINI(&sb, ini); err != nil {
			t.Fatalf("serialize accepted iniConfig: %v", err)
		}
		again, err := parseINI(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("reparse of own output failed: %v\ndoc %q -> %q", err, doc, sb.String())
		}
		if again.Len() != ini.Len() {
			t.Fatalf("fixpoint violated: %d -> %d keys", ini.Len(), again.Len())
		}
	})
}
