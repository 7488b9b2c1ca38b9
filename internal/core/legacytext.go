package core

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"slices"
	"strconv"
	"strings"

	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/rdf/segcodec"
)

// This file is the frozen reader of text stores: everything the store knows
// about text store files — Turtle (.ttl) and N-Triples (.nt) canonicals and
// N-Triples delta segments — and about the .sum sidecars that sealed them
// lives here, and nothing writes either again. A text store verifies as it
// is (the audit's per-file check parses each file here), a tracker chains
// fresh pbs files onto it, and Compact (provio-merge -compact) migrates it to
// pbs; until then every read and PackSegments refuse it (readable).
//
// A text file cannot carry an in-band seal, so its seal lives in a sidecar,
// <file>.sum: a small key/value document describing the exact bytes of its
// companion. The sidecar was written after its file, and is removed before
// it, so a crash strands at worst a sidecar-less file (authenticated through
// its successor's seal, or the unacknowledged torn tail recovery drops),
// never a sidecar whose file is gone — except inside segment removal, which
// is why a sidecar below a pid's segment range is stale, not evidence of
// loss.

// chainSidecarExt is the extension appended to a text store file's name to
// form its integrity sidecar. The name grammar (layout.go) marks a sidecar
// name as one, so no read decodes it and TotalBytes does not count it.
const chainSidecarExt = ".sum"

const sidecarHeader = "provio-chain v1"

// sidecarInfo is one parsed .sum sidecar: the seal of a text store file.
type sidecarInfo struct {
	root   bool
	seq    uint64
	bytes  int64
	digest [32]byte // SHA-256 of the companion file's bytes
	prev   [32]byte // chain predecessor's digest
}

func (si sidecarInfo) chain() segcodec.Chain {
	return segcodec.Chain{Root: si.root, Seq: si.seq, Prev: si.prev}
}

// marshalSidecar renders the sidecar document for a file of n bytes, the
// canonical form parseSidecar holds every sidecar to. The final "check" line
// is a CRC32 of every line above it, so any single-byte damage to the
// sidecar itself — the prev digest included, which no other file
// cross-references — is locally detectable.
func marshalSidecar(c segcodec.Chain, n int64, digest [32]byte) []byte {
	kind := "segment"
	if c.Root {
		kind = "root"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", sidecarHeader)
	fmt.Fprintf(&b, "kind: %s\n", kind)
	fmt.Fprintf(&b, "seq: %d\n", c.Seq)
	fmt.Fprintf(&b, "bytes: %d\n", n)
	fmt.Fprintf(&b, "sha256: %s\n", hex.EncodeToString(digest[:]))
	fmt.Fprintf(&b, "prev: %s\n", hex.EncodeToString(c.Prev[:]))
	fmt.Fprintf(&b, "check: %08x\n", crc32.ChecksumIEEE([]byte(b.String())))
	return []byte(b.String())
}

// parseSidecar decodes a sidecar document, rejecting anything malformed —
// a torn or tampered sidecar must read as damage, never as a weaker seal.
func parseSidecar(data []byte) (sidecarInfo, error) {
	var si sidecarInfo
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 7 || lines[0] != sidecarHeader {
		return si, fmt.Errorf("not a %q document", sidecarHeader)
	}
	check, ok := strings.CutPrefix(lines[6], "check: ")
	if !ok || len(check) != 8 {
		return si, fmt.Errorf("malformed check line %q", lines[6])
	}
	sum, err := strconv.ParseUint(check, 16, 32)
	if err != nil {
		return si, fmt.Errorf("check line: %v", err)
	}
	body := strings.Join(lines[:6], "\n") + "\n"
	if crc32.ChecksumIEEE([]byte(body)) != uint32(sum) {
		return si, fmt.Errorf("sidecar checksum mismatch")
	}
	seen := map[string]bool{}
	for _, line := range lines[1 : len(lines)-1] {
		key, val, ok := strings.Cut(line, ": ")
		if !ok || seen[key] {
			return si, fmt.Errorf("malformed line %q", line)
		}
		seen[key] = true
		var err error
		switch key {
		case "kind":
			switch val {
			case "root":
				si.root = true
			case "segment":
				si.root = false
			default:
				err = fmt.Errorf("unknown kind %q", val)
			}
		case "seq":
			si.seq, err = strconv.ParseUint(val, 10, 64)
		case "bytes":
			si.bytes, err = strconv.ParseInt(val, 10, 64)
		case "sha256":
			err = parseDigest(val, &si.digest)
		case "prev":
			err = parseDigest(val, &si.prev)
		default:
			err = fmt.Errorf("unknown key %q", key)
		}
		if err != nil {
			return si, fmt.Errorf("field %q: %v", key, err)
		}
	}
	if len(seen) != 5 {
		return si, fmt.Errorf("missing fields (%d of 5 present)", len(seen))
	}
	// The document must be byte-identical to its canonical rendering: hex
	// case variants and newline games re-parse to the same seal and would
	// otherwise slip past every field check.
	if !bytes.Equal(data, marshalSidecar(si.chain(), si.bytes, si.digest)) {
		return si, fmt.Errorf("sidecar is not in canonical form")
	}
	return si, nil
}

// sidecarName is the name of a store file's sidecar.
func sidecarName(name string) string { return name + chainSidecarExt }

// checkText checks a text store file: its sidecar seal, when it has one,
// against the file's bytes, then the parse. keep retains the parsed triples
// in segment shape, which is how Compact folds them and how a pack's stats
// check compares them.
func (f *auditFile) checkText(sums map[string]*auditFile, keep bool) {
	name, data := f.name, f.data
	if sum, ok := sums[sidecarName(name)]; ok {
		f.sumName = sum.name
		si, err := parseSidecar(sum.data)
		switch {
		case err != nil:
			f.flag(DefectTampered, f.sumName, "sidecar: %v", err)
		case int64(len(data)) < si.bytes:
			f.flag(DefectTruncated, name, "file is %d bytes, sealed length is %d", len(data), si.bytes)
		case int64(len(data)) > si.bytes:
			f.flag(DefectTampered, name, "file is %d bytes, sealed length is %d", len(data), si.bytes)
		case f.digest != si.digest:
			f.flag(DefectTampered, name, "content does not match its sealed sha256")
		default:
			ch := si.chain()
			f.meta = &ch
		}
	}
	g := rdf.NewGraph()
	if err := segcodec.Detect(data).Decode(bytes.NewReader(data), g); err != nil {
		if !f.bad() {
			f.flag(DefectTampered, name, "parse: %v", err)
		}
	} else if keep {
		f.cols = segcodec.GraphColumns(g)
	}
}

// withSidecar returns the file's name, and its sidecar's when it has one.
func (f *auditFile) withSidecar() []string {
	if f.sumName == "" {
		return []string{f.name}
	}
	return []string{f.name, f.sumName}
}

// routeSidecars charges every sidecar whose companion file is gone to its
// process; it runs once each process's files are sorted.
func (a *storeAudit) routeSidecars(pidOf func(pid int) *pidAudit) {
	for sumName, sum := range a.sums {
		pid, seg := sum.pid, sum.seg
		fileName := strings.TrimSuffix(sumName, chainSidecarExt)
		if a.audited[fileName] != nil {
			continue
		}
		pa := pidOf(pid)
		// A segment sidecar below every present segment (or with none left),
		// next to a canonical file, is the residue of a crash inside segment
		// removal — the segment goes before its sidecar, so the sidecar can
		// outlive it. It references superseded history: GC material, not
		// evidence of loss. pa.segs is sorted by segment number.
		stale := len(pa.canonicals) > 0 && seg >= 0 && (len(pa.segs) == 0 || seg < pa.segs[0].seg)
		if stale {
			pa.staleSums = append(pa.staleSums, sumName)
		} else {
			pa.addDefect(DefectMissing, fileName,
				"file is gone but its integrity sidecar %s remains", sumName)
		}
	}
}

// removeWithSidecar removes a store file the audit read, its sidecar first.
func (s *Store) removeWithSidecar(f *auditFile) error {
	if f.sumName != "" {
		if err := s.backend.Remove(s.path(f.sumName)); err != nil {
			return err
		}
	}
	return s.backend.Remove(s.path(f.name))
}

// segmentRemovalOrder picks, from a store listing, pid's delta segment files
// and the sidecars of text ones, in the order RemoveSegments deletes them:
// each sidecar just before its segment, and a sidecar whose segment is
// already gone where it lists. A sidecar lists right after its segment (no
// other store name sorts between them), so that is where it moves from.
func segmentRemovalOrder(files []layoutFile, pid int) []string {
	var out []string
	for _, f := range files {
		if f.kind != kindSegment || f.pid != pid {
			continue
		}
		if n := len(out); f.sum && n > 0 && sidecarName(out[n-1]) == f.name {
			out = slices.Insert(out, n-1, f.name)
		} else {
			out = append(out, f.name)
		}
	}
	return out
}
