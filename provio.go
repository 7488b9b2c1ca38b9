// Package provio is PROV-IO: an I/O-centric provenance framework for
// scientific data on HPC systems, reproducing Han et al., HPDC 2022
// (doi:10.1145/3502181.3531477) in pure Go.
//
// The framework has four pillars:
//
//   - The PROV-IO model (Model* identifiers): a W3C PROV extension with
//     concrete Data Object, I/O API, Agent, and Extensible sub-classes and
//     the relations connecting them.
//   - Provenance tracking: a VOL connector (NewProvConnector) that
//     transparently intercepts hierarchical-format I/O, and a POSIX syscall
//     wrapper (WrapPOSIX) for raw file I/O; both feed a Tracker.
//   - A provenance store (Store) persisting per-process sub-graphs in a
//     binary ID-space format (FormatBinary, .pbs), with GUID-based merging;
//     Turtle and N-Triples leave it through provio-export.
//   - A user engine: SPARQL queries (Query, Explain — the only two query
//     entry points, over a merged *Graph or an out-of-core *LazySource) and
//     Graphviz visualization (WriteDOT) over the collected provenance.
//
// A minimal end-to-end flow:
//
//	fs := provio.NewMemStore()
//	store, _ := provio.NewStore(provio.VFSBackend{View: fs.NewView()}, "/prov", provio.FormatBinary)
//	tracker := provio.NewTracker(provio.DefaultConfig(), store, 0)
//	user := tracker.RegisterUser("alice")
//	prog := tracker.RegisterProgram("convert-a1", user)
//	conn := provio.NewProvConnector(provio.NewNativeConnector(fs.NewView()),
//		tracker, provio.Context{User: user, Program: prog}, nil)
//	// ... perform I/O through conn; then:
//	tracker.Close()
//	graph, _ := store.Merge()
//	res, _, _ := provio.Query(graph, `SELECT ?f WHERE { ?f a provio:File . }`, 1 /* workers */)
//
// See examples/ for complete programs covering the paper's three use cases.
package provio

// Version is the release version of this reproduction.
const Version = "1.0.0"
