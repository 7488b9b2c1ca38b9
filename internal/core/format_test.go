package core

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/hpc-io/prov-io/internal/rdf/segcodec"
	"github.com/hpc-io/prov-io/internal/vfs"
)

// writeRecorder records the name of every file written through it.
type writeRecorder struct {
	Backend
	mu      sync.Mutex
	written map[string]bool
}

func (b *writeRecorder) WriteFile(path string, data []byte) error {
	b.mu.Lock()
	b.written[filepath.Base(path)] = true
	b.mu.Unlock()
	return b.Backend.WriteFile(path, data)
}

// TestStoreWritesOnlyPBS runs every store writer — a tracker's Close at end
// and periodically under each pipeline, PackSegments, Compact and
// WriteMergedParallel — and finds .pbs and .psk files only.
func TestStoreWritesOnlyPBS(t *testing.T) {
	check := func(what string, rec *writeRecorder) {
		t.Helper()
		if len(rec.written) == 0 {
			t.Errorf("%s wrote nothing", what)
		}
		for name := range rec.written {
			if ext := filepath.Ext(name); ext != segcodec.Binary.Ext() && ext != segcodec.Pack.Ext() {
				t.Errorf("%s wrote %s", what, name)
			}
		}
	}
	record := func(files map[string][]byte) (*Store, *writeRecorder) {
		store := openDir(t, files)
		rec := &writeRecorder{Backend: store.backend, written: map[string]bool{}}
		store.backend = rec
		return store, rec
	}

	store, rec := record(nil)
	cfg := DefaultConfig()
	trackInto(t, store, 0, cfg, false)
	for i, p := range []Pipeline{PipelineAsync, PipelineDelta, PipelineInline} {
		cfg := DefaultConfig()
		cfg.Mode, cfg.FlushEvery, cfg.Pipeline = ModePeriodic, 2, p
		trackInto(t, store, 1+i, cfg, false)
		trackInto(t, store, 4+i, cfg, true)
	}
	check("tracker Close and periodic flushes", rec)
	pbsStore := storeFiles(t, store)

	store, rec = record(pbsStore)
	if _, err := store.PackSegments(1); err != nil {
		t.Fatal(err)
	}
	check("PackSegments", rec)
	store, rec = record(pbsStore)
	if _, err := store.WriteMergedParallel(2); err != nil {
		t.Fatal(err)
	}
	check("WriteMergedParallel", rec)
	store, rec = record(pbsStore)
	if err := store.Compact(); err != nil {
		t.Fatal(err)
	}
	check("Compact", rec)
}

// TestNewStoreRefusesOtherFormats: the store writes pbs only, and a caller
// asking for anything else hears which tool writes text.
func TestNewStoreRefusesOtherFormats(t *testing.T) {
	for _, f := range []Format{1, 2, 0xFF} {
		_, err := NewStore(VFSBackend{View: vfs.NewStore().NewView()}, "/prov", f)
		if err == nil || !strings.Contains(err.Error(), "provio-export") {
			t.Errorf("NewStore with format %d: %v", f, err)
		}
	}
}

// TestConfigFormatKeyRefused: a configuration file naming a store format is
// an error that names the tool that writes text.
func TestConfigFormatKeyRefused(t *testing.T) {
	for _, val := range []string{"ttl", "nt", "pbs", "auto"} {
		_, err := LoadConfig(strings.NewReader("mode = at_end\nformat = " + val + "\n"))
		if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "provio-export") {
			t.Errorf("format = %s: %v", val, err)
		}
	}
}
