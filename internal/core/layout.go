package core

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"github.com/hpc-io/prov-io/internal/rdf/segcodec"
)

// Store layout (DESIGN.md "Store layout"): one grammar says what a store file
// name is, and one listing pass classifies the store directory by it. Every
// reader, the audit, Compact, PackSegments, RemoveSegments, Levels and
// TotalBytes walk that listing, so Verify audits exactly the files and pack
// members a read decodes. The grammar, with each number zero-padded to its
// width and never longer unless the value needs the digits:
//
//	prov_p<pid:6>.<ext>[.sum]             canonical sub-graph file
//	prov_p<pid:6>.seg<seg:4>.<ext>[.sum]  delta segment
//	prov_pack.l<level:2>.<seq:4>.psk      pack container
//
// where <ext> is .pbs, or .ttl/.nt for a text file an older build wrote, and
// .sum marks the sidecar that sealed a text file (legacytext.go): pbs files
// carry their seal in-band, so a .pbs.sum name is outside the grammar.

// nameKind is the class of a store file name.
type nameKind uint8

const (
	kindCanonical nameKind = iota + 1
	kindSegment
	kindPack
)

// storeName is a parsed store file name: the one formatter (String) and the
// one parser (parseStoreName) are exact inverses for every non-negative value.
type storeName struct {
	kind       nameKind
	pid, seg   int    // canonical and segment files; seg is -1 for a canonical file
	level, seq int    // pack containers
	ext        string // codec extension (.pbs, .ttl, .nt); .psk for a pack
	sum        bool   // the .sum sidecar of the file the rest names
}

// canonicalName, segmentName and packName name the files the store writes.
func canonicalName(pid int) string {
	return storeName{kind: kindCanonical, pid: pid, seg: -1, ext: segcodec.Binary.Ext()}.String()
}

func segmentName(pid, seg int) string {
	return storeName{kind: kindSegment, pid: pid, seg: seg, ext: segcodec.Binary.Ext()}.String()
}

func packName(level, seq int) string {
	return storeName{kind: kindPack, level: level, seq: seq, ext: segcodec.Pack.Ext()}.String()
}

func (n storeName) String() string {
	var s string
	switch n.kind {
	case kindPack:
		return fmt.Sprintf("prov_pack.l%02d.%04d%s", n.level, n.seq, n.ext)
	case kindSegment:
		s = fmt.Sprintf("prov_p%06d.seg%04d%s", n.pid, n.seg, n.ext)
	default:
		s = fmt.Sprintf("prov_p%06d%s", n.pid, n.ext)
	}
	if n.sum {
		s += chainSidecarExt
	}
	return s
}

// unit reports whether the name is a decodable unit: a canonical file or a
// delta segment, not a sidecar and not a pack.
func (n storeName) unit() bool { return n.kind != kindPack && !n.sum }

// text reports whether a canonical or segment name is a text file's.
func (n storeName) text() bool { return n.ext != segcodec.Binary.Ext() }

// parseStoreName parses a store file name; ok is false for every name the
// grammar does not produce.
func parseStoreName(name string) (n storeName, ok bool) {
	if rest, isPack := strings.CutPrefix(name, "prov_pack.l"); isPack {
		n = storeName{kind: kindPack, ext: segcodec.Pack.Ext()}
		if n.level, rest, ok = cutPadded(rest, 2); !ok || !strings.HasPrefix(rest, ".") {
			return n, false
		}
		n.seq, rest, ok = cutPadded(rest[1:], 4)
		return n, ok && rest == n.ext
	}
	rest, isProv := strings.CutPrefix(name, "prov_p")
	n = storeName{kind: kindCanonical, seg: -1}
	if n.pid, rest, ok = cutPadded(rest, 6); !ok || !isProv {
		return n, false
	}
	if r, isSeg := strings.CutPrefix(rest, ".seg"); isSeg {
		n.kind = kindSegment
		if n.seg, rest, ok = cutPadded(r, 4); !ok {
			return n, false
		}
	}
	n.ext, n.sum = strings.CutSuffix(rest, chainSidecarExt)
	switch n.ext {
	case segcodec.Turtle.Ext(), segcodec.NTriples.Ext():
		return n, true
	case segcodec.Binary.Ext():
		return n, !n.sum // a pbs file is sealed in-band
	}
	return n, false
}

// cutPadded cuts the number %0<width>d formats off the front of s: at least
// width digits, and a leading zero only within the padding.
func cutPadded(s string, width int) (v int, rest string, ok bool) {
	end := 0
	for end < len(s) && '0' <= s[end] && s[end] <= '9' {
		end++
	}
	if end < width || end > width && s[0] == '0' {
		return 0, s, false
	}
	v, err := strconv.Atoi(s[:end])
	return v, s[end:], err == nil
}

// claimedRE matches every name that claims to be a store file: it starts
// prov_p and ends in a store extension.
var claimedRE = regexp.MustCompile(`^prov_p.*\.(?:pbs|ttl|nt|psk)(?:\.sum)?$`)

// layoutFile is one store file the listing classified.
type layoutFile struct {
	name string
	storeName
}

// storeLayout is the store directory as one listing saw it: every file the
// grammar accepts, in the backend's sorted-name order, and every name that
// claims to be a store file but is not.
type storeLayout struct {
	files   []layoutFile
	orphans []string
}

// listLayout is the store's one directory listing.
func (s *Store) listLayout() (*storeLayout, error) {
	names, err := s.backend.List(s.dir)
	if err != nil {
		return nil, err
	}
	l := &storeLayout{}
	for _, name := range names {
		if n, ok := parseStoreName(name); ok {
			l.files = append(l.files, layoutFile{name: name, storeName: n})
		} else if claimedRE.MatchString(name) {
			l.orphans = append(l.orphans, name)
		}
	}
	return l, nil
}

// stored lists the files that hold provenance — canonical files, segments
// and packs, sidecars left out — with their sizes.
func (s *Store) stored() (files []layoutFile, sizes []int64, err error) {
	l, err := s.listLayout()
	if err != nil {
		return nil, nil, err
	}
	for _, f := range l.files {
		if f.sum {
			continue
		}
		n, err := s.backend.Stat(s.path(f.name))
		if err != nil {
			return nil, nil, err
		}
		files, sizes = append(files, f), append(sizes, n)
	}
	return files, sizes, nil
}
