package bench

import (
	"bytes"
	"testing"
)

// TestExhibitsGolden holds the ground rule that `provio-bench -exp all` stays
// byte-unchanged: every exhibit at ScaleSmall, rendered exactly as
// cmd/provio-bench prints it, and every artifact (Figure 9's DOT graph) must
// equal the fixtures, which the parent binary wrote. Regenerating them with
// -update is an exhibit change, not a refactor.
func TestExhibitsGolden(t *testing.T) {
	var out bytes.Buffer
	for _, id := range IDs() {
		rep, err := Run(id, ScaleSmall)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		out.WriteString(rep.Render() + "\n")
		if rep.Artifact != "" {
			checkGolden(t, rep.ArtifactName, []byte(rep.Artifact))
		}
	}
	checkGolden(t, "exhibits_small.txt", out.Bytes())
}
