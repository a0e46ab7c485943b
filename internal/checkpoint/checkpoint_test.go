package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rms/internal/faults"
	"rms/internal/nlopt"
)

type demoState struct {
	Name  string    `json:"name"`
	Iter  int       `json:"iter"`
	Theta []float64 `json:"theta"`
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fit.ckpt")
	in := demoState{Name: "demo", Iter: 7, Theta: []float64{1.5, -2.25, 0.125}}
	if err := Save(path, "demo", in); err != nil {
		t.Fatal(err)
	}
	var out demoState
	if err := Load(path, "demo", &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || out.Iter != in.Iter || len(out.Theta) != 3 {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	for i, v := range in.Theta {
		if out.Theta[i] != v {
			t.Fatalf("theta[%d] = %v, want %v", i, out.Theta[i], v)
		}
	}
}

func TestMarshalIsDeterministic(t *testing.T) {
	in := demoState{Name: "demo", Iter: 3, Theta: []float64{0.1, 0.2}}
	a, err := Marshal("demo", in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Marshal("demo", in)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("identical payloads produced different checkpoint bytes")
	}
}

func TestLoadRejectsCorruptPayload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fit.ckpt")
	if err := Save(path, "demo", demoState{Name: "demo", Iter: 1}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte without breaking the JSON frame.
	mut := strings.Replace(string(data), `"iter":1`, `"iter":2`, 1)
	if mut == string(data) {
		t.Fatal("mutation did not apply")
	}
	if err := os.WriteFile(path, []byte(mut), 0o644); err != nil {
		t.Fatal(err)
	}
	var out demoState
	err = Load(path, "demo", &out)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted payload loaded: err = %v", err)
	}
}

func TestLoadRejectsWrongKindAndVersion(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fit.ckpt")
	if err := Save(path, "demo", demoState{}); err != nil {
		t.Fatal(err)
	}
	var out demoState
	if err := Load(path, "other", &out); err == nil {
		t.Error("wrong kind accepted")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mut := strings.Replace(string(data), fmt.Sprintf(`"version":%d`, Version), `"version":99`, 1)
	if err := os.WriteFile(path, []byte(mut), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Load(path, "demo", &out); err == nil {
		t.Error("wrong version accepted")
	}
}

// A version-1 run checkpoint — the format that carried the estimator's
// per-rank file assignment — is well-formed and correctly hashed, but
// this build must refuse it with the version error rather than resume
// from a state it no longer has fields for.
func TestLoadRejectsVersion1Envelope(t *testing.T) {
	payload := `{"opt":{"x":[1],"lambda":0.001,"iter":2},` +
		`"est":{"calls":4,"wall_seconds":0.5,"model_ops":1000,"last_times":[10,20],` +
		`"assignment":[[0],[1]],"sched_stats":{"Steals":0,"Splits":0,"Replans":0},` +
		`"recovery":{},"degrade":{}}}`
	sum := sha256.Sum256([]byte(payload))
	env := fmt.Sprintf(`{"version":1,"kind":%q,"sha256":%q,"payload":%s}`,
		RunKind, hex.EncodeToString(sum[:]), payload)
	path := filepath.Join(t.TempDir(), "v1.ckpt")
	if err := os.WriteFile(path, []byte(env), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadRun(path)
	want := fmt.Sprintf("checkpoint: version 1, this build reads %d", Version)
	if err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("LoadRun(v1) err = %v, want %q", err, want)
	}
}

func TestLoadRejectsTruncatedFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fit.ckpt")
	if err := Save(path, "demo", demoState{Name: "demo", Theta: []float64{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	var out demoState
	if err := Load(path, "demo", &out); err == nil {
		t.Error("truncated file accepted")
	}
}

func TestSaveLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fit.ckpt")
	for i := 0; i < 3; i++ {
		if err := Save(path, "demo", demoState{Iter: i}); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "fit.ckpt" {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Errorf("directory holds %v, want only fit.ckpt", names)
	}
}

func TestSaveOverwritesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fit.ckpt")
	if err := Save(path, "demo", demoState{Iter: 1}); err != nil {
		t.Fatal(err)
	}
	if err := Save(path, "demo", demoState{Iter: 2}); err != nil {
		t.Fatal(err)
	}
	var out demoState
	if err := Load(path, "demo", &out); err != nil {
		t.Fatal(err)
	}
	if out.Iter != 2 {
		t.Errorf("Iter = %d, want 2 (latest write)", out.Iter)
	}
}

func TestRunStateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	plan := faults.NewPlan(42).FailFile(1, 3).HangFile(0, 5)
	ps := plan.Snapshot()
	in := RunState{
		Opt:    nlopt.CheckState{Iter: 4, X: []float64{0.5, 1.5}, Lambda: 1e-3, RNorm: 0.25},
		Faults: &ps,
	}
	in.Est.Calls = 9
	in.Est.LastTimes = []float64{10, 20}
	if err := SaveRun(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := LoadRun(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.Opt.Iter != 4 || out.Opt.Lambda != 1e-3 || len(out.Opt.X) != 2 {
		t.Errorf("optimizer state mismatch: %+v", out.Opt)
	}
	if out.Est.Calls != 9 || len(out.Est.LastTimes) != 2 {
		t.Errorf("estimator state mismatch: %+v", out.Est)
	}
	if out.Faults == nil {
		t.Fatal("fault plan dropped")
	}
	restored := faults.FromState(*out.Faults).Snapshot()
	a, _ := Marshal("plan", ps)
	b, _ := Marshal("plan", restored)
	if !bytes.Equal(a, b) {
		t.Error("fault plan did not survive the round trip canonically")
	}
}
