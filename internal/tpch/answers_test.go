package tpch

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"strings"
	"testing"

	"x100/internal/core"
	"x100/internal/vector"
)

// pinnedAnswersFile holds, per TPC-H query at SF 0.01, the answer digest
// of answerDigest. Plan rewrites must leave every line unchanged.
const pinnedAnswersFile = "testdata/answers_sf001.txt"

// answerDigest summarizes a query result independent of row order: the
// row count, the sum of a 64-bit FNV hash per row over its non-float cells
// (exact), and a sum per float column (compared to 1e-6 relative, since
// plans and parallelism may add in different orders). The line format is
// "Q<n> rows=<n> digest=<hex> sums=<col>:<sum>,..." with "sums=-" when the
// result has no float column.
type answerDigest struct {
	rows   int
	digest uint64
	names  []string
	sums   []float64
}

func digestOf(res *core.Result) answerDigest {
	d := answerDigest{rows: res.NumRows()}
	var floatCols []int
	for i, f := range res.Schema {
		if f.Type.Physical() == vector.Float64 {
			floatCols = append(floatCols, i)
			d.names = append(d.names, f.Name)
		}
	}
	d.sums = make([]float64, len(floatCols))
	var b strings.Builder
	for r := 0; r < res.NumRows(); r++ {
		row := res.Row(r)
		b.Reset()
		for _, v := range row {
			if _, ok := v.(float64); !ok {
				fmt.Fprintf(&b, "|%v", v)
			}
		}
		h := fnv.New64a()
		h.Write([]byte(b.String()))
		d.digest += h.Sum64()
		for j, c := range floatCols {
			d.sums[j] += row[c].(float64)
		}
	}
	return d
}

func (d answerDigest) String() string {
	sums := "-"
	if len(d.names) > 0 {
		parts := make([]string, len(d.names))
		for i, n := range d.names {
			parts[i] = n + ":" + strconv.FormatFloat(d.sums[i], 'g', 17, 64)
		}
		sums = strings.Join(parts, ",")
	}
	return fmt.Sprintf("rows=%d digest=%016x sums=%s", d.rows, d.digest, sums)
}

func parseDigest(s string) (answerDigest, error) {
	var d answerDigest
	var sums string
	if _, err := fmt.Sscanf(s, "rows=%d digest=%x sums=%s", &d.rows, &d.digest, &sums); err != nil {
		return d, fmt.Errorf("parse %q: %w", s, err)
	}
	if sums == "-" {
		return d, nil
	}
	for _, p := range strings.Split(sums, ",") {
		name, val, ok := strings.Cut(p, ":")
		if !ok {
			return d, fmt.Errorf("parse %q: bad sum %q", s, p)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return d, fmt.Errorf("parse %q: %w", s, err)
		}
		d.names = append(d.names, name)
		d.sums = append(d.sums, v)
	}
	return d, nil
}

// matches reports whether got answers what d pins: equal counts, digests
// and float column names, and float sums within 1e-6 relative.
func (d answerDigest) matches(got answerDigest) bool {
	if d.rows != got.rows || d.digest != got.digest || len(d.names) != len(got.names) {
		return false
	}
	for i := range d.names {
		if d.names[i] != got.names[i] || relDiff(d.sums[i], got.sums[i]) > 1e-6 {
			return false
		}
	}
	return true
}

func readPinnedAnswers(t *testing.T) map[string]answerDigest {
	t.Helper()
	f, err := os.Open(pinnedAnswersFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string]answerDigest)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		q, rest, _ := strings.Cut(line, " ")
		d, err := parseDigest(rest)
		if err != nil {
			t.Fatal(err)
		}
		out[q] = d
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestQueryAnswersPinned checks every TPC-H query on the vectorized engine
// at parallelism 1 and 2 against the answers pinned in
// testdata/answers_sf001.txt. It is the oracle for plan rewrites: a plan
// that joins, filters or aggregates differently must still answer the
// same. On a mismatch the log lists the current plans' lines in the file's
// format.
func TestQueryAnswersPinned(t *testing.T) {
	db := getDB(t)
	pinned := readPinnedAnswers(t)
	var current strings.Builder
	failed := false
	for q := 1; q <= NumQueries; q++ {
		name := fmt.Sprintf("Q%d", q)
		want, ok := pinned[name]
		if !ok {
			t.Errorf("%s: no pinned answer", name)
		}
		plan, err := Query(q, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 2} {
			opts := core.DefaultOptions()
			opts.Parallelism = p
			res, err := core.Run(db, plan, opts)
			if err != nil {
				t.Fatalf("%s p=%d: %v", name, p, err)
			}
			got := digestOf(res)
			if p == 1 {
				fmt.Fprintf(&current, "%s %s\n", name, got)
			}
			if ok && !want.matches(got) {
				failed = true
				t.Errorf("%s p=%d: answer %s, pinned %s", name, p, got, want)
			}
		}
	}
	if failed || len(pinned) != NumQueries {
		t.Logf("current answers:\n%s", current.String())
	}
}
