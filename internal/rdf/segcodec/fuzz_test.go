package segcodec

import (
	"bytes"
	"testing"

	"github.com/hpc-io/prov-io/internal/rdf"
)

// FuzzSegcodecDecode hammers the binary decoder with arbitrary bytes. The
// contract under test: Decode returns an error for anything that is not a
// well-formed segment and never panics, over-allocates on lying counts, or
// loops. Valid encodings must round-trip.
func FuzzSegcodecDecode(f *testing.F) {
	// Seed with valid segments of increasing shape complexity...
	empty := &bytes.Buffer{}
	if err := Binary.Encode(empty, rdf.NewGraph(), nil); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())

	g := rdf.NewGraph()
	g.Add(rdf.Triple{S: rdf.IRI("urn:a"), P: rdf.IRI("urn:p"), O: rdf.Literal("x")})
	g.Add(rdf.Triple{S: rdf.IRI("urn:abc"), P: rdf.IRI("urn:p"), O: rdf.LangLiteral("héllo", "en")})
	g.Add(rdf.Triple{S: rdf.Blank("b0"), P: rdf.IRI("urn:q"), O: rdf.TypedLiteral("42", rdf.XSDInteger)})
	one := &bytes.Buffer{}
	if err := Binary.Encode(one, g, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(one.Bytes())

	// ...with a chain-sealed segment and prefixes of it (torn-write shapes)...
	sealed := AppendChain(one.Bytes(), Chain{Root: true, Seq: 0, Prev: [32]byte{1, 2, 3}})
	f.Add(sealed)
	f.Add(sealed[:len(one.Bytes())+3]) // cut inside the chain frame
	f.Add(sealed[:len(sealed)-1])

	// ...and with targeted corruptions of those seeds.
	f.Add([]byte{})
	f.Add(pbsMagic)
	f.Add(append(append([]byte{}, pbsMagic...), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)) // huge frame length
	trunc := append([]byte{}, one.Bytes()...)
	f.Add(trunc[:len(trunc)/2])
	flip := append([]byte{}, one.Bytes()...)
	flip[len(flip)/2] ^= 0x80
	f.Add(flip)
	// A dictionary out of order behind valid CRCs and a self-consistent stats
	// frame: accepted, it would re-encode to different bytes.
	f.Add(unsortedDictSegment(f, zMP, [][3]uint32{{0, 2, 1}, {1, 2, 0}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		into := rdf.NewGraph()
		err := Binary.Decode(bytes.NewReader(data), into)
		if err != nil {
			return // rejected: fine, as long as we did not panic
		}
		// Accepted input must re-encode to the identical bytes once any
		// chain seal is stripped: the payload format is canonical, so
		// encode(decode(x)) == StripChain(x) for any accepted x, and a seal
		// survives a decode/strip round-trip unchanged. Legacy inputs from
		// before the stats frame existed are the one tolerated divergence:
		// re-encoding adds the canonical stats frame, so for them the
		// equality holds after StripStats. (An accepted input WITH a stats
		// frame always has the canonical one — Decode rejects mismatches —
		// so no other divergence is possible.)
		var re bytes.Buffer
		if err := Binary.Encode(&re, into, nil); err != nil {
			t.Fatalf("re-encode of accepted input failed: %v", err)
		}
		canon := re.Bytes()
		if sc := StripChain(data); !bytes.Equal(canon, sc) {
			canon = StripStats(canon)
			if !bytes.Equal(canon, sc) {
				t.Fatalf("accepted input is not canonical: %d payload bytes in, %d bytes re-encoded",
					len(sc), re.Len())
			}
		}
		if ch, ok := ChainOf(data); ok {
			resealed := AppendChain(canon, ch)
			if !bytes.Equal(resealed, data) {
				t.Fatal("seal did not survive the decode/re-seal round-trip")
			}
		}
	})
}
