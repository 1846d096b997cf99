package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
)

// report is one experiment's rendered text within a job's output.
type report struct {
	ID   string
	Text string
}

func (r report) sha() string {
	h := sha256.Sum256([]byte(r.Text))
	return hex.EncodeToString(h[:])
}

// headerID returns the experiment id of a report header line
// ("== fig8: title ==") or "" when line is not one.
func headerID(line string) string {
	if !strings.HasPrefix(line, "== ") || !strings.HasSuffix(line, " ==") {
		return ""
	}
	id, _, ok := strings.Cut(line[3:], ":")
	if !ok {
		return ""
	}
	return id
}

// splitReports cuts a job's text output (exp.JobResult.RenderText, the
// daemon's /report body) into its reports.
func splitReports(text string) []report {
	var out []report
	for _, line := range strings.SplitAfter(text, "\n") {
		if id := headerID(strings.TrimSuffix(line, "\n")); id != "" {
			out = append(out, report{ID: id})
		}
		if len(out) > 0 {
			out[len(out)-1].Text += line
		}
	}
	return out
}

// reference is EXPERIMENTS.md cut into its report sections, keyed by
// experiment id. It is the `ltexp -exp all` output at small scale, seed 1.
type reference map[string][]string

func loadReference(path string) (reference, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ref, err := parseReference(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ref, nil
}

// parseReference reads the report sections out of the fenced text
// blocks of a markdown file.
func parseReference(raw []byte) (reference, error) {
	ref := reference{}
	var cur string
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "```") {
			cur = ""
			continue
		}
		if id := headerID(line); id != "" {
			cur = id
		}
		if cur != "" {
			ref[cur] = append(ref[cur], line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(ref) == 0 {
		return nil, fmt.Errorf("no report sections")
	}
	return ref, nil
}

// checkRows compares a seed-1 report run over a subset of presets with
// its reference section: the header must match, and every row of the
// report that names one of the presets must match the reference row for
// that preset field by field (column widths depend on the other rows, so
// spacing is not compared). Rows that aggregate over presets (means,
// merged CDFs) cannot match a subset and are not compared. It returns
// the number of rows compared.
func (ref reference) checkRows(r report, presets []string) (int, error) {
	want, ok := ref[r.ID]
	if !ok {
		return 0, fmt.Errorf("%s: no reference section", r.ID)
	}
	lines := strings.Split(strings.TrimRight(r.Text, "\n"), "\n")
	if lines[0] != want[0] {
		return 0, fmt.Errorf("%s: header %q, reference %q", r.ID, lines[0], want[0])
	}
	isPreset := map[string]bool{}
	for _, p := range presets {
		isPreset[p] = true
	}
	// Rows for one preset may recur (one per table of the report); the
	// k-th row naming a preset matches the reference's k-th.
	refRows := map[string][][]string{}
	for _, line := range want[1:] {
		if f := strings.Fields(line); len(f) > 0 && isPreset[f[0]] {
			refRows[f[0]] = append(refRows[f[0]], f)
		}
	}
	seen := map[string]int{}
	checked := 0
	for _, line := range lines[1:] {
		f := strings.Fields(line)
		if len(f) == 0 || !isPreset[f[0]] {
			continue
		}
		k := seen[f[0]]
		seen[f[0]]++
		if k >= len(refRows[f[0]]) {
			return checked, fmt.Errorf("%s: extra row for %s: %q", r.ID, f[0], line)
		}
		if got, exp := strings.Join(f, " "), strings.Join(refRows[f[0]][k], " "); got != exp {
			return checked, fmt.Errorf("%s: row %q, reference %q", r.ID, got, exp)
		}
		checked++
	}
	return checked, nil
}

// verifier checks every job output of a run. The first output seen for
// a job kind becomes the run's own reference, which every later output
// of that kind must equal byte for byte; at seed 1 that first output is
// also checked row by row against EXPERIMENTS.md.
type verifier struct {
	mu    sync.Mutex
	ref   reference         // nil when the seed is not 1
	first map[string]string // job kind → first output
	rows  int               // reference rows compared
}

func newVerifier(ref reference, seed uint64) *verifier {
	v := &verifier{first: map[string]string{}}
	if seed == 1 {
		v.ref = ref
	}
	return v
}

// check verifies one output of the named job kind, run over presets.
func (v *verifier) check(kind, text string, presets []string, wantIDs []string) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if first, ok := v.first[kind]; ok {
		if text != first {
			return fmt.Errorf("%s: output differs from the run's first output of this job", kind)
		}
		return nil
	}
	reps := splitReports(text)
	if len(reps) != len(wantIDs) {
		return fmt.Errorf("%s: %d reports, want %d", kind, len(reps), len(wantIDs))
	}
	for i, r := range reps {
		if r.ID != wantIDs[i] {
			return fmt.Errorf("%s: report %d is %s, want %s", kind, i, r.ID, wantIDs[i])
		}
		if v.ref != nil {
			n, err := v.ref.checkRows(r, presets)
			if err != nil {
				return fmt.Errorf("%s: %w", kind, err)
			}
			v.rows += n
		}
	}
	v.first[kind] = text
	return nil
}

// printShas writes one line per report of every job kind verified, so
// two commits' outputs can be compared exactly.
func (v *verifier) printShas(w io.Writer) {
	v.mu.Lock()
	defer v.mu.Unlock()
	kinds := make([]string, 0, len(v.first))
	for kind := range v.first {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		for _, r := range splitReports(v.first[kind]) {
			fmt.Fprintf(w, "report %s %s sha256=%s\n", kind, r.ID, r.sha())
		}
	}
}
