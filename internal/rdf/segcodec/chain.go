package segcodec

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Chain is the per-file hash-chain seal of the provenance store's integrity
// layer (DESIGN.md "Integrity & fault injection"): every store file commits
// to the SHA-256 digest of the file that preceded it in its process's write
// history, so truncation, reordering, and splicing of segments are
// detectable by provio-verify without trusting file names or mtimes.
//
// For the binary codec the seal travels inside the file as one extra frame
// after the triple block, so a .pbs file and its seal are written atomically:
//
//	frame{ 'C' 'H' 'N' 0x01 | flags | uvarint(seq) | prev[32] }
//
// flags bit 0 marks a chain root (a canonical sub-graph file, sealed by
// Flush or Compact); delta segments carry flags 0 and seq = their segment
// number. prev is the SHA-256 of the predecessor's complete file bytes — for
// a segment, the previous segment (or the canonical file it chains from);
// for a root, the chain head the rewrite superseded, which is what lets a
// verifier authenticate segments left behind by a crash between the
// canonical rewrite and segment removal.
//
// This package defines the embedded-footer form and the helper that appends
// it; the binary codec's frame reader reads it back.
type Chain struct {
	Root bool
	Seq  uint64
	Prev [32]byte
}

// chainMagic leads the chain frame payload, distinguishing it from a stray
// third data frame.
var chainMagic = []byte{'C', 'H', 'N', 0x01}

const chainRootFlag = 0x01

// PrevIsZero reports whether the seal chains from the zero digest — the
// start of a process's history.
func (c Chain) PrevIsZero() bool { return c.Prev == [32]byte{} }

// AppendChain returns file with an embedded chain frame appended. file must
// be a complete binary segment (magic + data frames + optional stats frame);
// the result still decodes via the binary codec, which tolerates exactly one
// trailing chain frame.
func AppendChain(file []byte, c Chain) []byte {
	var flags byte
	if c.Root {
		flags |= chainRootFlag
	}
	p := make([]byte, 0, len(chainMagic)+1+binary.MaxVarintLen64+len(c.Prev))
	p = append(append(p, chainMagic...), flags)
	p = binary.AppendUvarint(p, c.Seq)
	p = append(p, c.Prev[:]...)

	out := make([]byte, 0, len(file)+len(p)+12)
	return appendFrame(append(out, file...), p)
}

// parseChainPayload decodes the chain frame payload (after CRC check).
func parseChainPayload(p []byte) (Chain, error) {
	var c Chain
	if !bytes.HasPrefix(p, chainMagic) {
		return c, fmt.Errorf("missing chain magic")
	}
	p = p[len(chainMagic):]
	if len(p) == 0 {
		return c, fmt.Errorf("missing flags byte")
	}
	flags := p[0]
	p = p[1:]
	if flags&^chainRootFlag != 0 {
		return c, fmt.Errorf("unknown chain flags %#02x", flags)
	}
	c.Root = flags&chainRootFlag != 0
	var err error
	if c.Seq, p, err = getUvarint(p); err != nil {
		return c, fmt.Errorf("seq: %v", err)
	}
	if len(p) != len(c.Prev) {
		return c, fmt.Errorf("prev digest is %d bytes, want %d", len(p), len(c.Prev))
	}
	copy(c.Prev[:], p)
	return c, nil
}
