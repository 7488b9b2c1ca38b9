package provio_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportedAllowlist names the exported identifiers of internal/ that nothing
// outside their own file reaches, each with the reason it stays. A key is a
// package directory (every such name in it) or the directory joined by a dot
// to the name, a method as Type.Method.
var exportedAllowlist = map[string]string{
	// Scaffolding that PAPER.md's substitution table keeps.
	"internal/adios":   "ADIOS2-homomorphic engine API, exercised by its tests",
	"internal/faultfs": "fault-injection scaffolding: its knobs are what the tests turn",
	"internal/hdf5":    "HDF5-homomorphic API surface (object model and datatypes)",
	"internal/mpi":     "MPI rank-simulator API surface",
	"internal/vfs":     "Lustre-like POSIX filesystem API surface",

	// Public through a type alias in package provio.
	"internal/core.Config.Enable":           "public via provio: selects tracked classes",
	"internal/core.Config.Disable":          "public via provio: deselects tracked classes",
	"internal/posixio.FS.Getxattr":          "public via provio: syscall-wrapper counterpart",
	"internal/posixio.FS.Listxattr":         "public via provio: syscall-wrapper counterpart",
	"internal/posixio.FS.Setxattr":          "public via provio: syscall-wrapper counterpart",
	"internal/posixio.FS.Symlink":           "public via provio: syscall-wrapper counterpart",
	"internal/posixio.File.Seek":            "public via provio: syscall-wrapper counterpart",
	"internal/rdf.Graph.Find":               "public via provio: the pattern lookup of a graph",
	"internal/rdf.Graph.Has":                "public via provio: the membership test of a graph",
	"internal/rdf.Namespaces.MustExpand":    "public via provio",
	"internal/rdf.Term.Ptr":                 "public via provio: builds Graph.Find patterns",
	"internal/simclock.Clock.Reset":         "public via provio",
	"internal/simclock.CostModel.TrackCost": "public via provio: the modeled cost of one record",

	// Named by the perf harness alone.
	"internal/backend.Mem":                          "named by bench/perf, ROADMAP item 6",
	"internal/core.LazyView.ReduceLineagePruned":    "named by bench/perf, ROADMAP item 6",
	"internal/model.AgentRecord.AppendTriples":      "named by bench/perf, ROADMAP item 6",
	"internal/model.DataObjectRecord.AppendTriples": "named by bench/perf, ROADMAP item 6",
	"internal/model.DerivationRecord.AppendTriples": "named by bench/perf, ROADMAP item 6",
	"internal/model.ExtensibleRecord.AppendTriples": "named by bench/perf, ROADMAP item 6",
	"internal/model.IOActivityRecord.AppendTriples": "named by bench/perf, ROADMAP item 6",
	"internal/rdf.Graph.AddBatch":                   "named by bench/perf, ROADMAP item 6",
	"internal/rdf.Graph.RefsSince":                  "named by bench/perf, whose replay copies the delta it encodes",
	"internal/rdf.SharedDict.RemapSnapshot":         "named by bench/perf, ROADMAP item 6",
	"internal/rdf/segcodec.AppendChain":             "named by bench/perf, which seals its replayed segments with it",
	"internal/rdf/segcodec.ComputeGraphStats":       "named by bench/perf, ROADMAP item 6",
	"internal/rdf/segcodec.RefsEncoder":             "named by bench/perf, which encodes its replayed segments through it",

	// Reached through an exported signature the name-level scan cannot see.
	"internal/backend.Archive":         "OpenArchive's result; core's crash harness opens one",
	"internal/backend.Mount":           "NewMount's result; core's crash harness builds one",
	"internal/rdf/segcodec.PackMember": "element of PackHeader.Members, which core reads",
	"internal/sparql.Reached":          "Reach's result element, which core's lineage reads",

	// Used across a package boundary by tests only.
	"internal/rdf.ErrGraphFull":    "sentinel the merges wrap; core's tests classify it",
	"internal/rdf.Snapshot.Tables": "core's tests assert a sorted unit holds no tables",
}

// TestExportedSurface keeps internal/ free of exported names the product
// does not reach. It scans names, not types: an exported identifier declared
// in a non-test file under internal/ is flagged when no non-test file of
// the module other than its own names it, counting bench/perf (a module of
// its own) as a caller. Each flagged name is deleted, moved into a _test.go
// file, unexported, or allowlisted above with a reason; an allowlist entry
// that flags nothing fails too, so the list cannot rot.
func TestExportedSurface(t *testing.T) {
	type decl struct {
		key, file string // allowlist key, declaring file
		pos       token.Position
	}
	fset := token.NewFileSet()
	var decls []decl
	product := map[string]map[string]bool{} // name -> non-test files naming it
	harness := map[string]bool{}            // names bench/perf names
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declared := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			for _, id := range declIdents(d) {
				declared[id] = true
			}
		}
		if strings.HasPrefix(path, "internal/") && f.Name.Name != "main" {
			dir := filepath.ToSlash(filepath.Dir(path))
			for _, d := range f.Decls {
				for _, id := range declIdents(d) {
					if name, ok := exportedName(d, id); ok {
						decls = append(decls, decl{dir + "." + name, path, fset.Position(id.Pos())})
					}
				}
			}
		}
		inHarness := strings.HasPrefix(path, "bench/perf/")
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				if inHarness {
					harness[id.Name] = true
				} else {
					if product[id.Name] == nil {
						product[id.Name] = map[string]bool{}
					}
					product[id.Name][path] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no exported declarations found under internal/")
	}

	matched := map[string]bool{}
	for _, d := range decls {
		name := d.key[strings.LastIndex(d.key, ".")+1:]
		reached := false
		for file := range product[name] {
			reached = reached || file != d.file
		}
		if reached {
			continue
		}
		if _, ok := exportedAllowlist[d.key]; ok {
			matched[d.key] = true
			continue
		}
		if pkg := filepath.ToSlash(filepath.Dir(d.file)); exportedAllowlist[pkg] != "" {
			matched[pkg] = true
			continue
		}
		who := "no non-test file outside its own names it"
		if harness[name] {
			who = "only bench/perf names it"
		}
		t.Errorf("%s: %s is exported but %s: delete it, move it into a _test.go file, unexport it, or allowlist it with a reason",
			d.pos, d.key, who)
	}
	var keys []string
	for key := range exportedAllowlist {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		switch {
		case strings.TrimSpace(exportedAllowlist[key]) == "":
			t.Errorf("allowlist entry %s has no reason", key)
		case !matched[key]:
			t.Errorf("allowlist entry %s matches no unreached exported name; remove it", key)
		}
	}
}

// declIdents returns the names a top-level declaration introduces.
func declIdents(d ast.Decl) []*ast.Ident {
	switch d := d.(type) {
	case *ast.FuncDecl:
		return []*ast.Ident{d.Name}
	case *ast.GenDecl:
		var ids []*ast.Ident
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				ids = append(ids, s.Name)
			case *ast.ValueSpec:
				ids = append(ids, s.Names...)
			}
		}
		return ids
	}
	return nil
}

// exportedName returns the allowlist suffix of id, declared by d, when other
// packages can name it: an exported function, type, variable or constant,
// or an exported method of an exported type.
func exportedName(d ast.Decl, id *ast.Ident) (string, bool) {
	if !id.IsExported() {
		return "", false
	}
	fd, ok := d.(*ast.FuncDecl)
	if !ok || fd.Recv == nil {
		return id.Name, true
	}
	recv := fd.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	switch r := recv.(type) {
	case *ast.IndexExpr:
		recv = r.X
	case *ast.IndexListExpr:
		recv = r.X
	}
	typ, ok := recv.(*ast.Ident)
	if !ok || !typ.IsExported() {
		return "", false
	}
	return typ.Name + "." + id.Name, true
}
