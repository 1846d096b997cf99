package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// The golden fingerprints live in goldens.go (generated by cmd/goldens;
// re-pin with `make goldens` after an intentional model change). Each
// pinned report must reproduce byte-identically at any parallelism
// (deterministic cells + ordered reduction). key is a golden key: an
// experiment id or id@bench,bench,... (see GoldenPin).
func checkGolden(t *testing.T, key string) {
	t.Helper()
	want := GoldenSHA256(key)
	if want == "" {
		t.Fatalf("%s has no pinned fingerprint in goldens.go", key)
	}
	if testing.Short() {
		t.Skipf("%s golden fingerprint is not short", key)
	}
	id, benches := GoldenPin(key)
	// Cell parallelism and intra-run workers are independent knobs; the
	// report must be byte-identical across both (serial/serial through
	// parallel/parallel).
	for _, par := range []int{1, 8} {
		for _, workers := range []int{1, 8} {
			rendered := renderAt(t, id, benches, par, workers)
			sum := sha256.Sum256([]byte(rendered))
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("%s (parallelism %d, workers %d): report fingerprint %s, pinned %s\nreport:\n%s",
					key, par, workers, got, want, rendered)
			}
		}
	}
}

func TestFig11Golden(t *testing.T)  { checkGolden(t, "fig11") }
func TestConsolGolden(t *testing.T) { checkGolden(t, "consol") }

// TestTimingGoldens pins the cycle-level timing model's reports on the
// gap, sixtrack and swim presets, so a drift in any cycle, L2 or
// prefetch count shows up as a changed fingerprint.
func TestTimingGoldens(t *testing.T) {
	for _, id := range []string{"fig2", "table2", "table3", "fig12"} {
		t.Run(id, func(t *testing.T) { checkGolden(t, id+"@gap,sixtrack,swim") })
	}
}

// TestCoverageGoldens pins the coverage sweeps on the wupwise preset.
func TestCoverageGoldens(t *testing.T) {
	for _, id := range []string{"fig4", "fig8", "fig9", "fig10"} {
		t.Run(id, func(t *testing.T) { checkGolden(t, id+"@wupwise") })
	}
}

// TestGoldenIDsPinned keeps GoldenIDs and the fingerprint table in sync:
// every listed key must have a pin and resolve to a known experiment.
func TestGoldenIDsPinned(t *testing.T) {
	for _, key := range GoldenIDs() {
		if GoldenSHA256(key) == "" {
			t.Errorf("GoldenIDs lists %s but goldenSHA256 has no entry", key)
		}
		if id, _ := GoldenPin(key); registry[id] == nil {
			t.Errorf("GoldenIDs lists %s but no experiment registers %s", key, id)
		}
	}
}

func TestGoldenPin(t *testing.T) {
	if id, benches := GoldenPin("fig11"); id != "fig11" || benches != nil {
		t.Errorf(`GoldenPin("fig11") = %q, %q`, id, benches)
	}
	id, benches := GoldenPin("table3@gap,swim")
	if id != "table3" || len(benches) != 2 || benches[0] != "gap" || benches[1] != "swim" {
		t.Errorf(`GoldenPin("table3@gap,swim") = %q, %q`, id, benches)
	}
}
