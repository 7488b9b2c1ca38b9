package segcodec

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"github.com/hpc-io/prov-io/internal/rdf"
)

// genOf is the stats frame generation a file of the version carries.
func genOf(version byte) byte {
	if version < PBSVersion {
		return staGenBloom
	}
	return staGenRange
}

// decodeAny is Binary.Decode through the audit's door: a file of any
// version, validated whole before the first insert.
func decodeAny(data []byte, into *rdf.Graph) error {
	c, err := DecodeAnyVersion(data)
	if err != nil {
		return err
	}
	c.Materialize(into)
	return nil
}

// statsSplit locates the stats frame of a binary segment: payload is the
// frame payload, off the byte offset where the frame starts. ok is false
// when no structurally valid stats frame is present.
func statsSplit(data []byte) (payload []byte, off int, ok bool) {
	_, rest, err := pbsBody(data)
	if err != nil {
		return nil, 0, false
	}
	if _, rest, _ = readFrame(rest); rest == nil {
		return nil, 0, false
	}
	if _, rest, _ = readFrame(rest); rest == nil {
		return nil, 0, false
	}
	off = len(data) - len(rest)
	payload, _, err = readFrame(rest)
	if err != nil || !bytes.HasPrefix(payload, staTag) {
		return nil, 0, false
	}
	return payload, off, true
}

// stripStats returns data without its stats frame (data itself when none is
// present): the shape of a file from before the frame existed.
func stripStats(data []byte) []byte {
	payload, off, ok := statsSplit(data)
	if !ok {
		return data
	}
	frameLen := len(appendFrame(nil, payload))
	return append(append([]byte{}, data[:off]...), data[off+frameLen:]...)
}

// TestLegacyUnionMatchesUnionGraph: the generation 1 union of older members is
// the generation 1 stats of a graph holding every member, at any shape the
// members take; and a generation 1 union beside a version 5 member is refused.
func TestLegacyUnionMatchesUnionGraph(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		union := rdf.NewGraph()
		var members []*Columns
		for m := rng.Intn(5); m >= 0; m-- {
			g := randomGraph(rng, rng.Intn(60))
			union.Merge(g)
			c := GraphColumns(g)
			tris := sortDedupTriples(c.Tris, len(c.Terms))
			if rng.Intn(2) == 0 {
				members = append(members, c) // a text member
				continue
			}
			old, err := DecodeAnyVersion(segmentOf(byte(1+rng.Intn(4)), c.Terms, tris))
			if err != nil {
				t.Fatal(err)
			}
			members = append(members, old)
		}
		uc := GraphColumns(union)
		want := legacyStats(uc.Terms, sortDedupTriples(uc.Tris, len(uc.Terms)))
		got, err := legacyUnion(members)
		if err != nil || !bytes.Equal(got.encode(), want.encode()) {
			t.Fatalf("seed %d: legacyUnion of %d members differs from the union graph's stats (%v)", seed, len(members), err)
		}
	}
	var buf bytes.Buffer
	if err := Binary.Encode(&buf, randomGraph(rand.New(rand.NewSource(1)), 10), nil); err != nil {
		t.Fatal(err)
	}
	cur, err := DecodeColumns(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := legacyUnion([]*Columns{cur}); err == nil || !strings.Contains(err.Error(), "beside a pbs v5 member") {
		t.Fatalf("legacyUnion over a version 5 member returned %v", err)
	}
}
