package segcodec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
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

// chainFrameRoom bounds a chain frame — its length byte, a payload of
// magic, flags, seq and prev, and the CRC — and is the room AppendSegment
// leaves after a segment for Seal.
const chainFrameRoom = 1 + (4 + 1 + binary.MaxVarintLen64 + 32) + 4

// Seal appends c's chain frame to file, a complete binary segment (magic +
// data frames + stats frame), in place when its capacity holds the frame,
// which a file from AppendSegment's does. The result still decodes via the
// binary codec, which tolerates exactly one trailing chain frame.
func Seal(file []byte, c Chain) []byte {
	var flags byte
	if c.Root {
		flags |= chainRootFlag
	}
	// The frame as appendFrame spells it, its payload written in place.
	var seq [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(seq[:], c.Seq)
	file = binary.AppendUvarint(file, uint64(len(chainMagic)+1+n+len(c.Prev)))
	at := len(file)
	file = append(append(file, chainMagic...), flags)
	file = append(append(file, seq[:n]...), c.Prev[:]...)
	return binary.LittleEndian.AppendUint32(file, crc32.Checksum(file[at:], crcTable))
}

// AppendChain returns a copy of file with c's chain frame appended: Seal,
// leaving file as it was.
func AppendChain(file []byte, c Chain) []byte {
	return Seal(append(make([]byte, 0, len(file)+chainFrameRoom), file...), c)
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
