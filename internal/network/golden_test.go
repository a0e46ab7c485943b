package network

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"rms/internal/rdl"
)

// TestGenerateGolden holds the RDL front end's networks byte for byte to
// the ones recorded in testdata/golden: species names, structures and
// order, and every reaction instance. Species identity is the canonical
// SMILES, so this pins the canonical ranking end to end on the
// chain-scission program (crosslinks n = 2..60), the quickstart program,
// a two-action sulfur-transfer rule whose second action resolves chain
// sites after an edit, and every compiling program of the RDL fuzz
// corpus.
func TestGenerateGolden(t *testing.T) {
	for _, name := range []string{"chain_scission", "quickstart", "couple"} {
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("testdata", "golden", name+".rdl"))
			if err != nil {
				t.Fatal(err)
			}
			net, err := generateSource(string(src))
			if err != nil {
				t.Fatal(err)
			}
			compareGolden(t, name+".golden", goldenText(net))
		})
	}
	t.Run("rdl_corpus", func(t *testing.T) {
		compareGolden(t, "rdl_corpus.golden", rdlCorpusGolden(t))
	})
}

// TestGenerateAbortGolden holds the text of generation-aborting chain
// errors to testdata/golden/abort.golden: a second action addressing a
// chain the first action split, and a first action addressing a
// branched chain, whose message names the atom by its index in the
// combined working graph.
func TestGenerateAbortGolden(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "golden", "abort_*.rdl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("abort programs: %v (%d files)", err, len(files))
	}
	var b strings.Builder
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err = generateSource(string(src)); err == nil {
			t.Fatalf("%s: generation succeeded, want an abort", f)
		}
		fmt.Fprintf(&b, "%s: %v\n", filepath.Base(f), err)
	}
	compareGolden(t, "abort.golden", b.String())
}

func generateSource(src string) (*Network, error) {
	prog, err := rdl.Parse(src)
	if err != nil {
		return nil, err
	}
	return Generate(prog)
}

// goldenText is FormatText followed by one "smiles NAME SMILES" line per
// species, so the golden also records each species' canonical structure.
func goldenText(net *Network) string {
	var b strings.Builder
	b.WriteString(FormatText(net))
	for _, s := range net.Species {
		fmt.Fprintf(&b, "smiles %s %s\n", s.Name, s.SMILES)
	}
	return b.String()
}

// rdlCorpusGolden renders every program of the RDL fuzz corpus: its
// network when it compiles, a marker when it does not.
func rdlCorpusGolden(t *testing.T) string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "rdl", "testdata", "fuzz", "FuzzParseRDL", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("RDL fuzz corpus: %v (%d files)", err, len(files))
	}
	var b strings.Builder
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not a one-argument corpus file", f)
		}
		src, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "string("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		fmt.Fprintf(&b, "== %s\n", filepath.Base(f))
		net, err := generateSource(src)
		if err != nil {
			b.WriteString("does not compile\n")
			continue
		}
		b.WriteString(goldenText(net))
	}
	return b.String()
}

func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d:\n got  %s\n want %s", name, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", name, len(gl), len(wl))
}
