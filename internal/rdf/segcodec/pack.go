package segcodec

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"path/filepath"

	"github.com/hpc-io/prov-io/internal/rdf"
)

// The pack container (.psk) is the on-disk form of the store's compacted
// segment levels (DESIGN.md "Leveled segments & pushdown"): one file holding
// many store files byte-for-byte verbatim, fronted by a header that carries
// each member's name, extent, and stats block plus a pack-level stats union.
//
// Members travel verbatim on purpose: a packed segment's bytes — seal
// included — are exactly what was audited before packing, so file digests,
// chain links, and externally recorded chain heads survive leveled
// compaction unchanged (the same property PR 7's verbatim relocation gives
// cross-backend migration). The header exists for readers: per-member stats
// let a pruned read skip members — or the whole pack — without fetching
// member bytes, and member extents let a backend with range reads fetch only
// the members a query needs.
//
// Layout:
//
//	magic      4 bytes  'P' 'S' 'K' <version=0x01>
//	header frame        frame{ header block }
//	member bytes        each member's verbatim file bytes, concatenated
//
//	header block:
//	  uvarint level
//	  uvarint memberCount
//	  per member: uvarint nameLen | name | uvarint size
//	              uvarint statsLen | stats payload      (0 = no stats)
//	  uvarint packStatsLen | pack stats payload         (0 = no stats)
//
// Member names keep their original store-file names. Stats payloads are
// stats frame payloads (stats.go): a member's is its own frame's, byte for
// byte; the pack's is the union of its members' contents. A pack holds pbs
// v5 members only, so both are generation 2; a payload of generation 1 is
// an older build's pack, which DecodePackHeader refuses with
// ErrNeedsMigration. CheckPackStats holds a header to its members.
type packCodec struct{}

var pskMagic = []byte{'P', 'S', 'K', 0x01}

func (packCodec) Ext() string { return ".psk" }

// Encode is not supported: packs hold files, not graphs. Build them with
// EncodePack.
func (packCodec) Encode(io.Writer, *rdf.Graph, *rdf.Namespaces) error {
	return fmt.Errorf("segcodec: psk is a container format; build packs with EncodePack")
}

// Decode is not supported either: a pack is read through its header
// (DecodePackHeader, CheckSize), and each member through its own decoder.
func (packCodec) Decode(io.Reader, *rdf.Graph) error {
	return fmt.Errorf("segcodec: psk is a container format; read packs with DecodePackHeader")
}

// PackEntry is one member handed to EncodePack.
type PackEntry struct {
	Name string
	Data []byte
	// Stats is the member's stats block; nil writes none, which every read
	// refuses and the audit reports as damage.
	Stats *SegStats
}

// PackMember is one member of a decoded pack header.
type PackMember struct {
	Name  string
	Off   int64 // byte offset of the member's verbatim bytes in the pack file
	Size  int64
	Stats SegStats // generation 0, the zero value, when the header carries none
}

// PackHeader is the decoded header of a pack file.
type PackHeader struct {
	Level   int
	Members []PackMember
	// Stats is the pack-level union (generation 0, the zero value, when
	// absent): if it cannot match, no member can.
	Stats SegStats
	// BodyOff is where member bytes start; WantSize is the total file size
	// the header implies.
	BodyOff  int64
	WantSize int64
}

// EncodePack returns a pack holding the entries verbatim, built in one
// buffer of the pack's size that the caller owns. packStats is the pack-level
// stats union (nil to omit). Nested packs are rejected: a pack member must be
// an ordinary store file.
func EncodePack(level int, entries []PackEntry, packStats *SegStats) ([]byte, error) {
	if level < 1 {
		return nil, fmt.Errorf("segcodec: pack level %d out of range (levels start at 1)", level)
	}
	var h bytes.Buffer
	putUvarint(&h, uint64(level))
	putUvarint(&h, uint64(len(entries)))
	var bodyLen int
	for _, e := range entries {
		if filepath.Ext(e.Name) == Pack.Ext() {
			return nil, fmt.Errorf("segcodec: pack member %s is itself a pack", e.Name)
		}
		putUvarint(&h, uint64(len(e.Name)))
		h.WriteString(e.Name)
		putUvarint(&h, uint64(len(e.Data)))
		if e.Stats != nil {
			sp := e.Stats.encode()
			putUvarint(&h, uint64(len(sp)))
			h.Write(sp)
		} else {
			putUvarint(&h, 0)
		}
		bodyLen += len(e.Data)
	}
	if packStats != nil {
		sp := packStats.encode()
		putUvarint(&h, uint64(len(sp)))
		h.Write(sp)
	} else {
		putUvarint(&h, 0)
	}

	out := make([]byte, 0, len(pskMagic)+h.Len()+bodyLen+16)
	out = appendFrame(append(out, pskMagic...), h.Bytes())
	for _, e := range entries {
		out = append(out, e.Data...)
	}
	return out, nil
}

// DecodePackHeader parses a pack's header from data, which may be just a
// prefix of the file (the lazy-read path fetches the head of the pack and
// retries with more bytes on ErrTruncated). Member offsets are absolute file
// offsets; member bytes need not be present in data. A header EncodePack
// would not write — level 0, a member that is a pack, an extent past the
// largest int64 offset — is ErrCorrupt, so the extents of an accepted header
// are non-negative and contiguous up to WantSize. Stats of generation 1 are
// an older build's pack: ErrNeedsMigration, never damage.
func DecodePackHeader(data []byte) (*PackHeader, error) {
	if !bytes.HasPrefix(data, pskMagic) {
		if len(data) < len(pskMagic) && bytes.HasPrefix(pskMagic, data) {
			return nil, fmt.Errorf("%w inside PSK magic", ErrTruncated)
		}
		return nil, fmt.Errorf("%w: missing PSK magic", ErrCorrupt)
	}
	rest := data[len(pskMagic):]
	payload, rest, err := readFrame(rest)
	if err != nil {
		return nil, fmt.Errorf("%w: pack header frame: %w", ErrCorrupt, err)
	}
	h := &PackHeader{BodyOff: int64(len(data) - len(rest))}

	level, payload, err := getUvarint(payload)
	if err != nil {
		return nil, fmt.Errorf("%w: pack level: %v", ErrCorrupt, err)
	}
	if level < 1 || level > math.MaxInt {
		return nil, fmt.Errorf("%w: pack level %d out of range", ErrCorrupt, level)
	}
	h.Level = int(level)
	count, payload, err := getUvarint(payload)
	if err != nil {
		return nil, fmt.Errorf("%w: pack member count: %v", ErrCorrupt, err)
	}
	// Every member costs at least 3 header bytes (three varints).
	if count > uint64(len(payload))/3+1 {
		return nil, fmt.Errorf("%w: member count %d exceeds header payload", ErrCorrupt, count)
	}
	off := h.BodyOff
	h.Members = make([]PackMember, 0, count)
	for i := uint64(0); i < count; i++ {
		var m PackMember
		if m.Name, payload, err = getString(payload); err != nil {
			return nil, fmt.Errorf("%w: member %d name: %v", ErrCorrupt, i, err)
		}
		if filepath.Ext(m.Name) == Pack.Ext() {
			return nil, fmt.Errorf("%w: member %s is itself a pack", ErrCorrupt, m.Name)
		}
		var size uint64
		if size, payload, err = getUvarint(payload); err != nil {
			return nil, fmt.Errorf("%w: member %d size: %v", ErrCorrupt, i, err)
		}
		// Extents are int64 file offsets: a size that carries the running
		// offset past the largest one would wrap it negative.
		if size > uint64(math.MaxInt64-off) {
			return nil, fmt.Errorf("%w: member %d size %d overflows the pack's extent", ErrCorrupt, i, size)
		}
		var sp []byte // parseStatsPayload copies what it keeps
		if sp, payload, err = getBytes(payload); err != nil {
			return nil, fmt.Errorf("%w: member %d stats: %v", ErrCorrupt, i, err)
		}
		if m.Stats, err = headerStats(sp); err != nil {
			return nil, fmt.Errorf("member %s stats: %w", m.Name, err)
		}
		m.Off, m.Size = off, int64(size)
		off += int64(size)
		h.Members = append(h.Members, m)
	}
	sp, payload, err := getBytes(payload)
	if err != nil {
		return nil, fmt.Errorf("%w: pack stats: %v", ErrCorrupt, err)
	}
	if h.Stats, err = headerStats(sp); err != nil {
		return nil, fmt.Errorf("pack stats: %w", err)
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in pack header", ErrCorrupt, len(payload))
	}
	h.WantSize = off
	return h, nil
}

// CheckSize holds the size of the pack's file to the size the header
// implies, for the reader and the audit alike: shorter is a torn write
// (ErrTruncated), longer is damage (ErrCorrupt).
func (h *PackHeader) CheckSize(size int64) error {
	if size == h.WantSize {
		return nil
	}
	cause := ErrCorrupt
	if size < h.WantSize {
		cause = ErrTruncated
	}
	return fmt.Errorf("pack is %d bytes, header implies %d: %w", size, h.WantSize, cause)
}

// headerStats parses one stats payload of a pack header: the zero SegStats
// when there is none, ErrNeedsMigration when it is generation 1, which only
// an older build wrote.
func headerStats(sp []byte) (SegStats, error) {
	if len(sp) == 0 {
		return SegStats{}, nil
	}
	if len(sp) > len(staTag) && bytes.HasPrefix(sp, staTag) && sp[len(staTag)] == staGenBloom {
		return SegStats{}, fmt.Errorf("generation %d: %w", staGenBloom, ErrNeedsMigration)
	}
	st, err := parseStatsPayload(sp)
	if err != nil {
		return st, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return st, nil
}

// MissingStats returns ErrCorrupt naming the first member whose header
// entry carries no stats, or the pack-level union when it carries none; nil
// when every entry has stats. Every pack this build writes carries them, and
// a read prunes on them: a pack without them is refused, never read.
func (h *PackHeader) MissingStats() error {
	for _, m := range h.Members {
		if m.Stats.Gen == 0 {
			return fmt.Errorf("%w: member %s carries no stats", ErrCorrupt, m.Name)
		}
	}
	if h.Stats.Gen == 0 {
		return fmt.Errorf("%w: no pack-level stats", ErrCorrupt)
	}
	return nil
}

// CheckPackStats reports whether a pack header's stats are the ones its
// members' contents derive: a pruned or lazy read trusts them without
// fetching a member, so a header that says less than the members hold would
// drop answers. members[i] is the validated columns of h.Members[i], whose
// Stats are its own frame. Every stats entry must be present, each member's
// equal to its own stats frame, and the pack's to the union of the members'
// contents.
func CheckPackStats(h *PackHeader, members []*Columns, workers int) error {
	if err := h.MissingStats(); err != nil {
		return err
	}
	for i := range h.Members {
		if m := &h.Members[i]; !bytes.Equal(m.Stats.encode(), members[i].Stats.encode()) {
			return fmt.Errorf("member %s: header stats differ from the member's stats frame", m.Name)
		}
	}
	if want := UnionStats(members, workers); !bytes.Equal(h.Stats.encode(), want.encode()) {
		return fmt.Errorf("pack-level stats differ from the union of the members' contents")
	}
	return nil
}
