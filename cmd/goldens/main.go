// Command goldens re-pins the golden report fingerprints in
// internal/exp/goldens.go: it renders each pin at Small scale, seed 1,
// hashes the rendered bytes, and rewrites the generated file. A pin is
// an experiment id, rendered over the experiment-default benchmark list,
// or id@bench,bench,..., rendered over that preset subset. Run it (via
// `make goldens`) after any intentional model change; the golden tests
// then verify the pinned renderings reproduce byte-identically at every
// parallelism/worker combination.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"go/format"
	"os"
	"sort"
	"strings"

	"repro/internal/buildinfo"
	"repro/internal/exp"
	"repro/internal/workload"
)

// pins lists what the generated table pins. The subset pins cover the
// timing model (fig2, table2, table3, fig12) and the coverage sweeps
// (fig4, fig8, fig9, fig10) on the benchmark's preset subsets, cheaply
// enough to re-render at every parallelism/worker combination.
var pins = []string{
	"consol", "fig11",
	"fig2@gap,sixtrack,swim", "table2@gap,sixtrack,swim", "table3@gap,sixtrack,swim", "fig12@gap,sixtrack,swim",
	"fig4@wupwise", "fig8@wupwise", "fig9@wupwise", "fig10@wupwise",
}

func main() {
	out := flag.String("out", "internal/exp/goldens.go", "generated file to rewrite")
	showVersion := buildinfo.VersionFlag("goldens")
	flag.Parse()
	showVersion()

	sums := make(map[string]string, len(pins))
	for _, key := range pins {
		id, benches := exp.GoldenPin(key)
		rep, err := exp.Run(id, exp.Options{Scale: workload.Small, Benchmarks: benches})
		if err != nil {
			fmt.Fprintf(os.Stderr, "goldens: %s: %v\n", key, err)
			os.Exit(1)
		}
		var sb strings.Builder
		rep.Render(&sb)
		sum := sha256.Sum256([]byte(sb.String()))
		sums[key] = hex.EncodeToString(sum[:])
		fmt.Printf("%s  %s\n", sums[key], key)
	}

	if err := os.WriteFile(*out, render(sums), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "goldens: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
}

// render emits the generated goldens.go source. The table and the key
// list are both sorted so regeneration is deterministic.
func render(sums map[string]string) []byte {
	keys := make([]string, 0, len(sums))
	for key := range sums {
		keys = append(keys, key)
	}
	sort.Strings(keys)

	var b strings.Builder
	b.WriteString(`// Code generated by cmd/goldens; regenerate with ` + "`make goldens`" + `. DO NOT EDIT.

package exp

import "strings"

// Golden report fingerprints: sha256 of the rendered report at Small
// scale, seed 1. A key is an experiment id, rendered over its default
// benchmark list, or id@bench,bench,..., rendered over that preset
// subset. The golden tests re-render each pin at cell-parallelism and
// intra-run-worker counts {1,8}² and require every rendering to match
// these bytes, so a pin covers determinism as well as model behavior.
// Any intentional model change re-pins via ` + "`make goldens`" + ` (which also
// means the diff to this file is the reviewable "blast radius" of the
// change).
var goldenSHA256 = map[string]string{
`)
	for _, key := range keys {
		fmt.Fprintf(&b, "\t%q: %q,\n", key, sums[key])
	}
	b.WriteString(`}

// GoldenSHA256 returns the pinned report fingerprint for a golden key,
// or "" if the key is not pinned.
func GoldenSHA256(key string) string { return goldenSHA256[key] }

// GoldenIDs returns the pinned golden keys in the order they appear in
// the generated table.
func GoldenIDs() []string { return []string{`)
	for i, key := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%q", key)
	}
	b.WriteString(`} }

// GoldenPin splits a golden key into its experiment id and benchmark
// subset (nil: the experiment's default list).
func GoldenPin(key string) (id string, benches []string) {
	id, list, ok := strings.Cut(key, "@")
	if ok {
		benches = strings.Split(list, ",")
	}
	return id, benches
}
`)
	src, err := format.Source([]byte(b.String()))
	if err != nil {
		// A formatting failure is a bug in this generator; emit the raw
		// source so the build error points at it.
		return []byte(b.String())
	}
	return src
}
