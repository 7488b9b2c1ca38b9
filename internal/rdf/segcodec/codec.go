// Package segcodec is the pluggable segment codec layer of the provenance
// store: it decouples what a store file contains (an RDF sub-graph or delta
// segment) from how it is laid out on disk.
//
// The store's one format is a binary ID-space format (.pbs) that serializes
// dictionary IDs instead of rendered terms, so the hot flush/merge paths
// never tokenize, escape, or re-parse term strings: the store writes pbs v5
// and reads nothing else (DecodeColumns). The text codecs, N-Triples (.nt)
// and Turtle (.ttl), are what export writes (DESIGN.md "Store codecs"). The
// pack container (.psk) neither encodes nor decodes a graph: it is read
// through its header. A file only an older build wrote is refused with
// ErrNeedsMigration, never decoded.
package segcodec

import (
	"errors"
	"fmt"
	"io"

	"github.com/hpc-io/prov-io/internal/rdf"
)

// Codec serializes and deserializes one on-disk store format.
type Codec interface {
	// Ext is the file extension including the leading dot.
	Ext() string
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

// ErrNeedsMigration is what every path returns for a file only an older
// build wrote — a pbs v1–v4 file, a pack whose header stats are generation
// 1, a text store file or the .sum file that sealed it. This build neither
// reads nor audits such a file: provio-merge -compact built from commit
// 93a6ed8, the last build that reads them, audits the store against its
// seals and rewrites it as sealed pbs v5 (DESIGN.md "Migrating an older
// store"). It is a verdict, not damage: it never wraps ErrCorrupt, nor
// ErrCorrupt it.
var ErrNeedsMigration = errors.New("store needs migration: run provio-merge -compact built from commit 93a6ed8, the last build that reads it")

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
