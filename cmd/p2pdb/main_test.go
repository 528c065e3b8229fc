package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/rules"
	"repro/internal/wal"
)

func writeExample(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "example.net")
	if err := os.WriteFile(path, []byte(rules.PaperExampleSeeded().Format()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSubcommands(t *testing.T) {
	path := writeExample(t)
	cases := [][]string{
		{"example"},
		{"run", path},
		{"paths", path},
		{"paths", path, "A"},
		{"query", path, "A", "a(X,Y)"},
		{"qdu", path, "C", "c(X,Y)"},
		{"trace", path},
	}
	for _, args := range cases {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

// TestRunDurableAndRecover drives the durability surface of the CLI: a run
// with -data persists every node's store, recover prints it, and a second
// run over the same directory restarts from disk.
func TestRunDurableAndRecover(t *testing.T) {
	path := writeExample(t)
	dir := filepath.Join(t.TempDir(), "stores")
	oldData, oldDelta := *dataDir, *delta
	*dataDir, *delta = dir, true
	defer func() { *dataDir, *delta = oldData, oldDelta }()

	if err := run([]string{"run", path}); err != nil {
		t.Fatalf("durable run: %v", err)
	}
	if err := run([]string{"recover", dir}); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if err := run([]string{"recover", dir, "A"}); err != nil {
		t.Fatalf("recover single node: %v", err)
	}
	// Restart over the recovered stores.
	if err := run([]string{"run", path}); err != nil {
		t.Fatalf("durable restart: %v", err)
	}
	if err := run([]string{"recover", filepath.Join(dir, "nope")}); err == nil {
		t.Fatal("recover of a missing store must fail")
	}
	old := *fsyncStr
	*fsyncStr = "bogus"
	if err := run([]string{"run", path}); err == nil {
		t.Fatal("unknown fsync policy must fail")
	}
	*fsyncStr = old
}

func TestRunErrors(t *testing.T) {
	path := writeExample(t)
	cases := [][]string{
		nil,                          // no subcommand
		{"bogus"},                    // unknown subcommand
		{"run"},                      // missing file
		{"run", "/no/such/file.net"}, // unreadable
		{"paths"},                    // missing file
		{"query", path, "A"},         // missing query
		{"query", path, "A", "broken("},
		{"trace"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

// TestRunStagedAndSnapshots checks that a staged run with -data leaves one
// durable store per node holding that node's fix-point, and that recover
// reads them all.
func TestRunStagedAndSnapshots(t *testing.T) {
	path := writeExample(t)
	dir := filepath.Join(t.TempDir(), "stores")
	oldStaged, oldData := *staged, *dataDir
	*staged, *dataDir = true, dir
	defer func() { *staged, *dataDir = oldStaged, oldData }()

	if err := run([]string{"run", path}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"recover", dir}); err != nil {
		t.Fatalf("recover: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"A": 4, "B": 4, "C": 8, "D": 6, "E": 3}
	if len(entries) != len(want) {
		t.Fatalf("stores = %d, want %d", len(entries), len(want))
	}
	for _, e := range entries {
		rec, err := wal.Inspect(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if got := rec.DB.TotalTuples(); got != want[e.Name()] {
			t.Errorf("%s recovered %d tuples, want %d", e.Name(), got, want[e.Name()])
		}
	}
}

func TestRunTCPSubcommand(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp subcommand skipped in -short mode")
	}
	path := writeExample(t)
	if err := run([]string{"tcp", path}); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeSubcommand(t *testing.T) {
	path := writeExample(t)
	if err := run([]string{"analyze", path}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"analyze"}); err == nil {
		t.Error("missing file must fail")
	}
}
