package core

import (
	"fmt"
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
//	prov_p<pid:6>.pbs                 canonical sub-graph file
//	prov_p<pid:6>.seg<seg:4>.pbs      delta segment
//	prov_pack.l<level:2>.<seq:4>.psk  pack container
//
// The files of a text store an older build wrote — .ttl and .nt files, and
// the .sum files that sealed them — are outside the grammar but never
// orphans: the listing refuses a store holding one (olderName), since a read
// that skipped them would answer from an empty store.

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
	pid, seg   int // canonical and segment files; seg is -1 for a canonical file
	level, seq int // pack containers
}

// canonicalName, segmentName and packName name the files the store writes;
// a tracker's writes format theirs straight into their path (namePath).
func canonicalName(pid int) storeName {
	return storeName{kind: kindCanonical, pid: pid, seg: -1}
}

func segmentName(pid, seg int) storeName {
	return storeName{kind: kindSegment, pid: pid, seg: seg}
}

func packName(level, seq int) string {
	return storeName{kind: kindPack, level: level, seq: seq}.String()
}

func (n storeName) String() string {
	var buf [48]byte
	return string(n.appendTo(buf[:0]))
}

// appendTo appends the name to dst.
func (n storeName) appendTo(dst []byte) []byte {
	if n.kind == kindPack {
		dst = appendPadded(append(dst, "prov_pack.l"...), n.level, 2)
		dst = appendPadded(append(dst, '.'), n.seq, 4)
		return append(dst, segcodec.Pack.Ext()...)
	}
	dst = appendPadded(append(dst, "prov_p"...), n.pid, 6)
	if n.kind == kindSegment {
		dst = appendPadded(append(dst, ".seg"...), n.seg, 4)
	}
	return append(dst, segcodec.Binary.Ext()...)
}

// appendPadded appends v as %0<width>d formats it: zero-padded to width
// characters, a sign included, never cut.
func appendPadded(dst []byte, v, width int) []byte {
	u := uint64(v)
	if v < 0 {
		dst, u, width = append(dst, '-'), -u, width-1
	}
	for digits, x := 1, u; digits < width; digits++ {
		if x /= 10; x == 0 {
			dst = append(dst, '0')
		}
	}
	return strconv.AppendUint(dst, u, 10)
}

// parseStoreName parses a store file name; ok is false for every name the
// grammar does not produce.
func parseStoreName(name string) (n storeName, ok bool) {
	if rest, isPack := strings.CutPrefix(name, "prov_pack.l"); isPack {
		n = storeName{kind: kindPack}
		if n.level, rest, ok = cutPadded(rest, 2); !ok || !strings.HasPrefix(rest, ".") {
			return n, false
		}
		n.seq, rest, ok = cutPadded(rest[1:], 4)
		return n, ok && rest == segcodec.Pack.Ext()
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
	return n, rest == segcodec.Binary.Ext()
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

// claimedName reports whether a name claims to be a store file: it starts
// prov_p and ends in a store extension.
func claimedName(name string) bool { return provName(name, ".pbs", ".psk") }

// olderName refuses a name only an older build wrote, a text store's file,
// with ErrNeedsMigration: a Turtle or N-Triples canonical file or segment,
// or the .sum file that sealed one. Every path lists through listLayout,
// which holds each name to it.
func olderName(name string) error {
	if provName(strings.TrimSuffix(name, ".sum"), ".ttl", ".nt") {
		return fmt.Errorf("%s: text store file: %w", name, segcodec.ErrNeedsMigration)
	}
	return nil
}

// provName reports whether name is prov_p, then anything without a newline,
// then one of the extensions: what the pattern ^prov_p.*\.(?:ext|...)$
// matches.
func provName(name string, exts ...string) bool {
	rest, ok := strings.CutPrefix(name, "prov_p")
	if !ok {
		return false
	}
	for _, ext := range exts {
		if mid, ok := strings.CutSuffix(rest, ext); ok {
			return !strings.Contains(mid, "\n")
		}
	}
	return false
}

// layoutFile is one store file the listing classified.
type layoutFile struct {
	name string
	storeName
}

// storeLayout is the store directory as one listing saw it: every file the
// grammar accepts, in the backend's sorted-name order, and every name that
// claims to be a store file but is not. A listing that finds a text store's
// file refuses the store instead.
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
	l := &storeLayout{files: make([]layoutFile, 0, len(names))}
	for _, name := range names {
		if err := olderName(name); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		if n, ok := parseStoreName(name); ok {
			l.files = append(l.files, layoutFile{name: name, storeName: n})
		} else if claimedName(name) {
			l.orphans = append(l.orphans, name)
		}
	}
	return l, nil
}

// stored lists the files that hold provenance — canonical files, segments
// and packs — with their sizes.
func (s *Store) stored() (files []layoutFile, sizes []int64, err error) {
	l, err := s.listLayout()
	if err != nil {
		return nil, nil, err
	}
	for _, f := range l.files {
		n, err := s.backend.Stat(s.path(f.name))
		if err != nil {
			return nil, nil, err
		}
		files, sizes = append(files, f), append(sizes, n)
	}
	return files, sizes, nil
}
