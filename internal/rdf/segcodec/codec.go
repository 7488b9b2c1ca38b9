// Package segcodec is the pluggable segment codec layer of the provenance
// store: it decouples what a store file contains (an RDF sub-graph or delta
// segment) from how it is laid out on disk.
//
// Three codecs are registered: a binary ID-space format (.pbs) that
// serializes dictionary IDs instead of rendered terms, so the hot
// flush/merge paths never tokenize, escape, or re-parse term strings — the
// one format the store writes, and the only one its reads take (v5, through
// DecodeColumns) — and the text formats older builds wrote, N-Triples (.nt)
// and Turtle (.ttl), which export writes and the audit reads (DESIGN.md
// "Store codecs"). The pack container (.psk) is registered beside them for
// Detect, but neither encodes nor decodes a graph: it is read through its
// header. Files an older build wrote reach a decoder only through the
// audit: text through Detect's fallback, pbs v1–v4 through DecodeAnyVersion
// (legacy.go).
package segcodec

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"github.com/hpc-io/prov-io/internal/rdf"
)

// Codec serializes and deserializes one on-disk store format.
type Codec interface {
	// Ext is the file extension including the leading dot.
	Ext() string
	// Magic returns the leading bytes identifying the format on disk, or
	// nil for text formats (which are identified by not matching any magic).
	Magic() []byte
	// Encode writes g's triples in this format. ns supplies prefix
	// compaction for codecs that use it (Turtle); others ignore it.
	Encode(w io.Writer, g *rdf.Graph, ns *rdf.Namespaces) error
	// Decode reads one document and unions its triples into the supplied
	// graph. Corrupt input must return an error (wrapping ErrCorrupt for
	// structural damage in binary framing), never panic.
	Decode(r io.Reader, into *rdf.Graph) error
}

// TermSource resolves dictionary IDs to terms; *rdf.Graph implements it.
type TermSource interface {
	TermOf(id rdf.ID) rdf.Term
}

// RefsEncoder is the ID-space fast path implemented by codecs that can
// serialize straight from insertion-log refs without rendering terms to
// text. The tracker's delta flush uses it so a binary flush touches only
// 12-byte TripleIDs plus the terms the segment introduces.
type RefsEncoder interface {
	EncodeRefs(w io.Writer, refs []rdf.TripleID, src TermSource) error
}

// ErrCorrupt is wrapped by every structural decode failure of the binary
// codec: bad magic, truncated frames, CRC mismatches, out-of-range IDs.
var ErrCorrupt = errors.New("segcodec: corrupt segment")

// ErrNeedsMigration is what every read returns for a file only an older
// build wrote — a pbs v1–v4 file, a text store file or its sidecar — and
// what provio-merge -compact (Store.Compact) rewrites as pbs v5. It is a
// verdict, not damage: it never wraps ErrCorrupt, nor ErrCorrupt it.
var ErrNeedsMigration = errors.New("store needs migration: run provio-merge -compact first")

// ErrTruncated is the truncation sub-class of ErrCorrupt: the input is a
// strict prefix of a well-formed segment (a torn write cut it short).
// errors.Is(err, ErrCorrupt) holds for every ErrTruncated error, so callers
// that only care about "structurally bad" keep working; provio-verify uses
// the finer class to report "truncated" instead of "tampered".
var ErrTruncated = fmt.Errorf("%w: input truncated", ErrCorrupt)

// The registered codecs.
var (
	// NTriples is the one-triple-per-line text codec (.nt).
	NTriples Codec = ntCodec{}
	// Turtle is the prefix-compacted text codec (.ttl).
	Turtle Codec = ttlCodec{}
	// Binary is the ID-space binary segment codec (.pbs).
	Binary Codec = binCodec{}
	// Pack is the leveled pack container (.psk) holding member store files
	// verbatim; see pack.go.
	Pack Codec = packCodec{}
)

// codecs is the registry Detect matches magic bytes against.
var codecs = []Codec{NTriples, Turtle, Binary, Pack}

// Detect returns the codec for a file's contents: the codec whose magic
// bytes prefix data, or the N-Triples codec otherwise — its decoder parses
// the N-Triples/Turtle text superset, so any non-binary store file decodes
// through the fallback regardless of extension.
func Detect(data []byte) Codec {
	for i := len(codecs) - 1; i >= 0; i-- {
		if m := codecs[i].Magic(); len(m) > 0 && bytes.HasPrefix(data, m) {
			return codecs[i]
		}
	}
	return NTriples
}
