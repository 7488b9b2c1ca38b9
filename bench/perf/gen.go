package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"github.com/hpc-io/prov-io/internal/core"
	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
)

// readSide selects how a workload's query half reaches the provenance.
type readSide uint8

const (
	// resident merges the packed store into one in-memory graph.
	resident readSide = iota
	// outOfCore reads through a LazyView whose cache is an eighth of the
	// decoded store.
	outOfCore
	// live queries the tracker's own graph between ingest bursts.
	live
)

// spec is one workload's shape. The sizes are the std scale; smoke divides
// them (see scaled).
type spec struct {
	name  string
	why   string
	dassa bool // DASSA lineage groups; false = H5bench scenario-2 records
	side  readSide

	ranks      int
	perRank    int // records per rank, exact
	flushEvery int
	bursts     int // live only: perRank is split into this many bursts

	nFirst   int // cold opens per round, each answering one select (live: one per burst)
	nSelect  int // selective queries in the list (live: per burst)
	nAgg     int // aggregate queries in the list (live: per burst)
	nLineage int // lineage roots in the list (live: per burst)
	laps     int // times a round walks the three lists (live: after every burst)
}

// The sizes below are the ISSUE's shapes cut to fit the driver's time cap
// (92 runs in 3420 s): records per rank were reduced, the unit structure
// (segments per rank, 3/4 periodic + 1/4 closed ranks) kept. The question
// lists are short and walked laps times a round: how steady a question's
// least time is depends on how often it is asked, not on how long the list
// is (NOISE.md); over its laps every list does at least 100 ms of work.
var specs = []spec{
	{
		name: "h5bench-resident",
		why:  "few entities, many timed I/O activities: record build and codec dominate ingest, queries are high-fan-out joins and aggregates; interning and lineage do little",
		side: resident, ranks: 16, perRank: 1024, flushEvery: 512,
		nFirst: 1, nSelect: 272, nAgg: 8, nLineage: 12, laps: 8,
	},
	{
		name: "dassa-resident", dassa: true,
		why:  "every record mints new terms: interning and the dictionary block dominate ingest, k-hop lineage dominates reads; the out-of-core machinery is bypassed, so a read-path cache change must not move it",
		side: resident, ranks: 16, perRank: 1024, flushEvery: 512,
		nFirst: 1, nSelect: 1500, nAgg: 24, nLineage: 32, laps: 8,
	},
	{
		name: "dassa-outofcore", dassa: true,
		why:  "store is 8x the decoded-unit cache: listing, range fetch, decode, ID remap and CLOCK eviction do the query work, and 3x the flushes per record make seal and backend write the largest ingest share",
		side: outOfCore, ranks: 20, perRank: 768, flushEvery: 256,
		nFirst: 40, nSelect: 24, nAgg: 2, nLineage: 8, laps: 2,
	},
	{
		name: "dassa-live", dassa: true,
		why:  "one rank alternates ingest bursts with queries on the tracker's own graph, deterministically: a gain that makes snapshot extension or index rebuild dearer shows as one metric up and another down",
		side: live, ranks: 1, perRank: 16384, flushEvery: 1024, bursts: 16,
		nSelect: 384, nAgg: 1, nLineage: 12, laps: 2,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// scaled returns the spec at the named scale. smoke keeps every code path
// (periodic and closed ranks, at least two segments per periodic rank,
// eviction out of core) at a size the unit tests finish in seconds.
func (s spec) scaled(scale string) (spec, error) {
	switch scale {
	case "std":
		return s, nil
	case "smoke":
		if s.side == live {
			s.perRank, s.flushEvery, s.bursts = 1024, 256, 4
			s.nSelect = 8
			return s, nil
		}
		s.ranks, s.perRank, s.flushEvery = 8, 96, 32
		s.nFirst, s.nSelect, s.nAgg, s.nLineage, s.laps = min(s.nFirst, 4), 24, 4, 4, 2
		return s, nil
	}
	return s, fmt.Errorf("unknown scale %q (want std|smoke)", scale)
}

// ---- rank scripts ----

type opKind uint8

const (
	opUser opKind = iota
	opProgram
	opThread
	opObject
	opIO
	opDerive
)

// op is one pre-built tracking call. a and b index earlier ops of the same
// rank whose returned node this call takes (-1 = none), so running a script
// formats no strings and the timed span holds only tracker work.
type op struct {
	kind    opKind
	class   *model.Class
	name    string // agent name, object identity, or API name
	a, b    int32
	rank    int32
	started time.Duration
	elapsed time.Duration
}

// rankScript is everything one simulated MPI rank tracks. Periodic ranks
// track an exact multiple of FlushEvery and end with Drain, which leaves
// sealed delta segments (PackSegments folds those); closed ranks end with
// Close, which folds the rank into one canonical file that stays loose.
type rankScript struct {
	pid    int
	closed bool
	ops    []op
}

// regAt is the node op j of the same rank returned, or the zero term.
func regAt(regs []rdf.Term, j int32) rdf.Term {
	if j < 0 {
		return rdf.Term{}
	}
	return regs[j]
}

// finish ends the rank the way its kind does: Close folds it into a
// canonical file, Drain only waits for the delta segments.
func (rs *rankScript) finish(tr *core.Tracker) error {
	if rs.closed {
		return tr.Close()
	}
	return tr.Drain()
}

// step runs op i against tr, leaving its node in regs[i].
func (rs *rankScript) step(tr *core.Tracker, regs []rdf.Term, i int) {
	o := &rs.ops[i]
	reg := func(j int32) rdf.Term { return regAt(regs, j) }
	switch o.kind {
	case opUser:
		regs[i] = tr.RegisterUser(o.name)
	case opProgram:
		regs[i] = tr.RegisterProgram(o.name, reg(o.a))
	case opThread:
		regs[i] = tr.RegisterThread(int(o.rank), reg(o.a))
	case opObject:
		regs[i] = tr.TrackDataObject(*o.class, o.name, "", reg(o.a), rdf.Term{})
	case opIO:
		regs[i] = tr.TrackIO(*o.class, o.name, reg(o.a), reg(o.b), o.started, o.elapsed)
	case opDerive:
		tr.TrackDerivation(reg(o.a), reg(o.b))
	}
}

// ---- queries and expected answers ----

// query is one SPARQL text with the row count the generator expects.
type query struct {
	text     string
	wantRows int
	// wantSum, when >= 0, is what the ?n column of an aggregate must sum to.
	wantSum int
}

// lineageRoot is one 2-hop lineage question with its expected closure size.
type lineageRoot struct {
	root        rdf.Term
	wantTriples int
}

// burstQueries is what dassa-live asks after one ingest burst; every object
// named belongs to a group tracked completely by then.
type burstQueries struct {
	end     int // ops[:end] are tracked when these run
	first   query
	selects []query
	aggs    []query
	roots   []lineageRoot
}

// workload is the generator's whole output for one (spec, seed): the rank
// scripts the tracker side runs, the questions the read side asks, and the
// closed-form answers the oracle holds both to.
type workload struct {
	spec    spec
	seed    int64
	ranks   []rankScript
	hash    string
	records int
	// wantTriples is the size of the union graph (shared user and program
	// triples counted once).
	wantTriples int
	// writtenTriples is what the ranks write in total (shared triples once
	// per rank): the denominator of segcodec.bytes_per_triple.
	writtenTriples int

	firsts  []query // one per cold open of a round
	selects []query
	aggs    []query
	roots   []lineageRoot
	bursts  []burstQueries // live only
}

// Triple counts per record kind, from internal/model's AppendTriples:
// an agent or data object is type + wasMemberOf + name (+1 per link), a
// timed I/O activity is type + wasMemberOf + object relation + association +
// elapsed + startedAt.
const (
	triplesUser    = 3
	triplesProgram = 4 // + actedOnBehalfOf user
	triplesThread  = 5 // + actedOnBehalfOf program + rank
	triplesObject  = 3
	triplesIO      = 6
)

// The DASSA group: 9 records, all names new.
//
//	0 raw File            1 Read raw          2 converted File
//	3 converted Dataset   4 Write converted   5 converted wasDerivedFrom raw
//	6 product Dataset     7 Write product     8 product wasDerivedFrom converted
//
// Both datasets sit in the converted file (one container edge each).
const (
	dassaGroupRecords = 9
	// Subject-triple counts, the row counts of a point lookup.
	dassaRowsRaw       = 3 + 1         // + wasReadBy
	dassaRowsConverted = 3 + 1 + 1 + 1 // + container, wasWrittenBy, wasDerivedFrom raw
	dassaRowsProduct   = 3 + 1 + 1 + 1 // + container, wasWrittenBy, wasDerivedFrom converted
	// 2-hop lineage of a product keeps {product, its write, converted
	// dataset, converted file, thread, raw file, converted's write}: their
	// annotations plus the relation edges among them.
	//   product 3+3, its write 4+1, converted 3+3, converted file 3,
	//   thread 4 (rank is a literal; the program is 3 hops away), raw 3,
	//   converted's write 4+1.
	dassaLineageTriples = 6 + 5 + 6 + 3 + 4 + 3 + 5
)

const h5Datasets = 8

var (
	classFile    = &model.File
	classDataset = &model.Dataset
	classRead    = &model.Read
	classWrite   = &model.Write
)

func threadIRI(rank int) string {
	return model.NodeIRI(model.Thread, "MPI_rank_"+strconv.Itoa(rank))
}

func pointQuery(iri string, rows int) query {
	return query{text: "SELECT ?p ?o WHERE { <" + iri + "> ?p ?o }", wantRows: rows, wantSum: -1}
}

// writersQuery is Table 5's "who wrote this object" join.
func writersQuery(iri string, rows int) query {
	return query{
		text:     "SELECT ?api ?agent WHERE { <" + iri + "> provio:wasWrittenBy ?api . ?api prov:wasAssociatedWith ?agent . }",
		wantRows: rows, wantSum: -1,
	}
}

// rankAggQuery is Table 5's op-count/elapsed aggregate (q1/q2) restricted to
// one rank: one row per activity class the rank used.
func rankAggQuery(rank, classes, ios int) query {
	return query{
		text: "SELECT ?c (COUNT(?a) AS ?n) (SUM(?e) AS ?t) WHERE { ?a prov:wasAssociatedWith <" + threadIRI(rank) +
			"> ; a ?c ; provio:elapsed ?e . } GROUP BY ?c",
		wantRows: classes, wantSum: ios,
	}
}

// gen builds the workload for (s, seed). The seed names every object and
// draws every duration; names and literals have fixed widths, every count is
// fixed by the spec and so is the place of every question's object, so runs
// on different seeds time the same amount of work over different bytes.
func gen(s spec, seed int64) *workload {
	rng := rand.New(rand.NewSource(seed))
	tok := fmt.Sprintf("%08x", rng.Uint32())
	w := &workload{spec: s, seed: seed, wantTriples: triplesUser + triplesProgram}
	user := "user-" + tok
	prog := "h5bench-" + tok
	if s.dassa {
		prog = "dassa-" + tok
	}

	// Objects the query lists draw from, per rank.
	type dassaGroup struct {
		raw, conv, prod string // node IRIs
		end             int    // op index just past the group
	}
	type h5Dataset struct {
		iri          string
		reads, write int
	}
	groups := make([][]dassaGroup, s.ranks)
	dsets := make([][]h5Dataset, s.ranks)
	acts := make([][]string, s.ranks) // h5bench activity IRIs
	rankIOs := make([]int, s.ranks)

	for r := 0; r < s.ranks; r++ {
		rs := rankScript{pid: r, closed: s.side != live && r%4 == 3, ops: make([]op, 0, s.perRank)}
		rs.ops = append(rs.ops,
			op{kind: opUser, name: user, a: -1, b: -1},
			op{kind: opProgram, name: prog, a: 0, b: -1},
			op{kind: opThread, rank: int32(r), a: 1, b: -1},
		)
		const thread = 2
		triples := triplesUser + triplesProgram + triplesThread
		var clock time.Duration
		seqs := map[string]int{}
		io := func(class *model.Class, api string, obj int) {
			elapsed := time.Duration(100000 + rng.Intn(900000))
			rs.ops = append(rs.ops, op{kind: opIO, class: class, name: api, a: int32(obj), b: thread,
				started: clock, elapsed: elapsed})
			// Calls start a millisecond apart and take less, so every
			// literal is as wide on one seed as on another and the store's
			// units have the same sizes: out of core, whether one more unit
			// fits the cache hangs on a few bytes.
			clock += time.Millisecond
			seqs[api]++
			triples += triplesIO
			rankIOs[r]++
		}
		object := func(class *model.Class, id string, container int) (int, string) {
			rs.ops = append(rs.ops, op{kind: opObject, class: class, name: id, a: int32(container), b: -1})
			triples += triplesObject
			if container >= 0 {
				triples++
			}
			return len(rs.ops) - 1, model.NodeIRI(*class, id)
		}

		if s.dassa {
			base := fmt.Sprintf("/das/%s/r%02d/", tok, r)
			for g := 0; len(rs.ops)+dassaGroupRecords <= s.perRank; g++ {
				tag := fmt.Sprintf("%05d_%06x", g, rng.Intn(1<<24))
				raw, rawIRI := object(classFile, base+"raw"+tag+".tdms", -1)
				io(classRead, "read", raw)
				cf, _ := object(classFile, base+"conv"+tag+".h5", -1)
				conv, convIRI := object(classDataset, base+"conv"+tag+".h5/DataCT", cf)
				io(classWrite, "H5Dwrite", conv)
				rs.ops = append(rs.ops, op{kind: opDerive, a: int32(conv), b: int32(raw)})
				prod, prodIRI := object(classDataset, base+"conv"+tag+".h5/xcorr", cf)
				io(classWrite, "H5Dwrite", prod)
				rs.ops = append(rs.ops, op{kind: opDerive, a: int32(prod), b: int32(conv)})
				triples += 2
				groups[r] = append(groups[r], dassaGroup{raw: rawIRI, conv: convIRI, prod: prodIRI, end: len(rs.ops)})
			}
			// Pad to the exact record count with reads of the first raw file;
			// the query lists leave group 0 alone, so its row counts never
			// depend on how many pads a scale needs.
			for len(rs.ops) < s.perRank {
				io(classRead, "read", 3)
			}
		} else {
			file, _ := object(classFile, fmt.Sprintf("/h5/%s/r%02d.h5", tok, r), -1)
			ds := make([]h5Dataset, h5Datasets)
			idx := make([]int, h5Datasets)
			for k := range ds {
				idx[k], ds[k].iri = object(classDataset,
					fmt.Sprintf("/h5/%s/r%02d.h5/dset%d_%06x", tok, r, k, rng.Intn(1<<24)), file)
			}
			// One sweep over the datasets writes each, the next reads each:
			// every dataset gets the same calls on every seed, so a join or
			// a lineage closure over it costs the same.
			for n := 0; len(rs.ops) < s.perRank; n++ {
				k := n % h5Datasets
				if n/h5Datasets%2 == 0 {
					io(classWrite, "H5Dwrite", idx[k])
					ds[k].write++
					acts[r] = append(acts[r], model.ActivityIRI("H5Dwrite", r, seqs["H5Dwrite"]))
				} else {
					io(classRead, "H5Dread", idx[k])
					ds[k].reads++
					acts[r] = append(acts[r], model.ActivityIRI("H5Dread", r, seqs["H5Dread"]))
				}
			}
			dsets[r] = ds
		}
		if len(rs.ops) != s.perRank {
			panic(fmt.Sprintf("gen: rank %d has %d records, want %d", r, len(rs.ops), s.perRank))
		}
		w.records += len(rs.ops)
		w.writtenTriples += triples
		w.wantTriples += triples - triplesUser - triplesProgram
		w.ranks = append(w.ranks, rs)
	}
	w.hash = scriptHash(w.ranks)

	// Question lists. A select list alternates a point lookup with the
	// writers join. What a question costs depends on where its object lives
	// (a closed rank is one big unit, a periodic rank several small ones),
	// so every four consecutive questions of a list go to three periodic
	// ranks and one closed one.
	var periodic, closed []int
	for r := range w.ranks {
		if w.ranks[r].closed {
			closed = append(closed, r)
		} else {
			periodic = append(periodic, r)
		}
	}
	// The seed names every object; which object a question is about is fixed
	// by the question's place in its list. Out of core a lookup, an
	// aggregate or a lineage closure costs 2x to 4x more on one rank, or in
	// one segment of it, than on another, and the lists are too short to
	// average that out: drawn at random, the same code read 15 % apart from
	// seed to seed. ranksFor spreads an n-question list evenly over the
	// ranks in rank order.
	ranksFor := func(n int) []int {
		p, c := periodic, closed
		nc := 0
		if len(c) > 0 {
			nc = n / 4
		}
		out := make([]int, n)
		for i, ip, ic := 0, 0, 0; i < n; i++ {
			if nc > 0 && i%4 == 3 {
				out[i] = c[ic*len(c)/nc%len(c)]
				ic++
			} else {
				out[i] = p[ip*len(p)/(n-nc)%len(p)]
				ip++
			}
		}
		return out
	}
	// at steps through 0..n-1 in a fixed scattered order (7919 is prime).
	place := 0
	at := func(n int) int {
		place++
		return place * 7919 % n
	}
	// pick is one of rank r's first limit groups, never group 0.
	pick := func(r, limit int) dassaGroup { return groups[r][1+at(limit-1)] }
	// selectAt is the i-th question of a pass about rank r, of whose DASSA
	// groups the first limit are tracked.
	selectAt := func(i, r, limit int) query {
		if s.dassa {
			g := pick(r, limit)
			switch i % 6 {
			case 0:
				return pointQuery(g.raw, dassaRowsRaw)
			case 2:
				return pointQuery(g.conv, dassaRowsConverted)
			case 4:
				return pointQuery(g.prod, dassaRowsProduct)
			}
			return writersQuery(g.prod, 1)
		}
		if i%2 == 0 {
			return pointQuery(acts[r][at(len(acts[r]))], triplesIO-1)
		}
		d := dsets[r][at(h5Datasets)]
		return writersQuery(d.iri, d.write)
	}
	rootAt := func(r, limit int) lineageRoot {
		if s.dassa {
			return lineageRoot{root: rdf.IRI(pick(r, limit).prod), wantTriples: dassaLineageTriples}
		}
		// 2 hops from a dataset keep the dataset (3 + container + one edge
		// per I/O), its file (3), every I/O on it (4 + association), the
		// thread (4) and, through the file, its sibling datasets (3 +
		// container each).
		d := dsets[r][at(h5Datasets)]
		n := d.reads + d.write
		return lineageRoot{root: rdf.IRI(d.iri), wantTriples: 4 + n + 3 + 5*n + 4 + 4*(h5Datasets-1)}
	}

	if s.side == live {
		rs := &w.ranks[0]
		per := s.perRank / s.bursts
		for b := 0; b < s.bursts; b++ {
			bq := burstQueries{end: (b + 1) * per}
			done := 0 // groups complete by the end of this burst
			for done < len(groups[0]) && groups[0][done].end <= bq.end {
				done++
			}
			ios := 0
			for i := 0; i < bq.end; i++ {
				if rs.ops[i].kind == opIO {
					ios++
				}
			}
			bq.first = selectAt(0, 0, done)
			for i := 0; i < s.nSelect; i++ {
				bq.selects = append(bq.selects, selectAt(i, 0, done))
			}
			for i := 0; i < s.nAgg; i++ {
				bq.aggs = append(bq.aggs, rankAggQuery(0, 2, ios))
			}
			for i := 0; i < s.nLineage; i++ {
				bq.roots = append(bq.roots, rootAt(0, done))
			}
			w.bursts = append(w.bursts, bq)
		}
		return w
	}

	all := func(r int) int { return len(groups[r]) }
	for i, r := range ranksFor(s.nFirst) {
		w.firsts = append(w.firsts, selectAt(2*i, r, all(r)))
	}
	for i, r := range ranksFor(s.nSelect) {
		w.selects = append(w.selects, selectAt(i, r, all(r)))
	}
	for _, r := range ranksFor(s.nAgg) {
		w.aggs = append(w.aggs, rankAggQuery(r, 2, rankIOs[r]))
	}
	for _, r := range ranksFor(s.nLineage) {
		w.roots = append(w.roots, rootAt(r, all(r)))
	}
	return w
}

// scriptHash digests every field of every op, so two generator runs agree
// on the hash exactly when the tracker side would see identical calls.
func scriptHash(ranks []rankScript) string {
	h := sha256.New()
	var buf [8]byte
	num := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, rs := range ranks {
		num(int64(rs.pid))
		if rs.closed {
			num(1)
		} else {
			num(0)
		}
		for _, o := range rs.ops {
			num(int64(o.kind))
			if o.class != nil {
				h.Write([]byte(o.class.Name))
			}
			h.Write([]byte(o.name))
			h.Write([]byte{0})
			num(int64(o.a))
			num(int64(o.b))
			num(int64(o.rank))
			num(int64(o.started))
			num(int64(o.elapsed))
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
