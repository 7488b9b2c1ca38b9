package bench

import (
	"fmt"
	"strings"

	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/sparql"
	"github.com/hpc-io/prov-io/internal/vfs"
	"github.com/hpc-io/prov-io/internal/viz"
	"github.com/hpc-io/prov-io/internal/workloads/dassa"
)

// Fig9 reproduces Figure 9: the DASSA data-lineage visualization. It runs a
// small DASSA workflow (with X-Correlation-Stacking), queries the backward
// lineage of one data product, and renders the provenance graph as Graphviz
// DOT with the queried lineage highlighted in blue.
func Fig9(s Scale) (*Report, error) {
	cfg := dassa.Config{Files: 4, Ranks: 2, XCorr: true, Lineage: dassa.FileLineage}
	store := vfs.NewStore()
	if err := dassa.GenerateInputs(store.NewView(), cfg); err != nil {
		return nil, err
	}
	res, err := dassa.Run(store, cfg)
	if err != nil {
		return nil, err
	}
	g, err := res.Store.Merge()
	if err != nil {
		return nil, err
	}

	// Backward lineage of the first decimate product, walked with the
	// 3-statements-per-step query of Table 5.
	product := rdf.IRI(model.NodeIRI(model.File, "/das/products/WestSac_0000.decimate.h5"))
	highlight := map[string]bool{product.Value: true}
	frontier := []rdf.Term{product}
	hops := 0
	for len(frontier) > 0 && hops < 4 {
		var next []rdf.Term
		for _, node := range frontier {
			q := fmt.Sprintf(`SELECT ?program WHERE { <%s> prov:wasAttributedTo ?program . }`, node.Value)
			r1, _, err := sparql.ExecParallelInfo(g, q, model.Namespaces(), 1)
			if err != nil {
				return nil, err
			}
			for _, row := range r1.Rows {
				prog := row["program"]
				highlight[prog.Value] = true
				q2 := fmt.Sprintf(`SELECT DISTINCT ?file WHERE {
					?file provio:wasReadBy ?api .
					?api prov:wasAssociatedWith <%s> .
				}`, prog.Value)
				r2, _, err := sparql.ExecParallelInfo(g, q2, model.Namespaces(), 1)
				if err != nil {
					return nil, err
				}
				for _, fr := range r2.Rows {
					f := fr["file"]
					if !highlight[f.Value] {
						highlight[f.Value] = true
						next = append(next, f)
					}
				}
			}
		}
		frontier = next
		hops++
	}

	var dot strings.Builder
	if err := viz.WriteDOT(&dot, g, viz.Options{
		Title:     "DASSA data lineage (PROV-IO)",
		Highlight: highlight,
	}); err != nil {
		return nil, err
	}

	r := &Report{
		ID:      "fig9",
		Title:   "DASSA data lineage visualization",
		Columns: []string{"metric", "value"},
		Notes: []string{
			"paper: lineage of the queried product highlighted in blue; graph follows the PROV-IO model",
			"render with: dot -Tpdf fig9.dot -o fig9.pdf",
		},
		Artifact:     dot.String(),
		ArtifactName: "fig9.dot",
	}
	r.AddRow("graph triples", itoa(g.Len()))
	r.AddRow("highlighted lineage nodes", itoa(len(highlight)))
	r.AddRow("backward hops", itoa(hops))
	return r, nil
}
