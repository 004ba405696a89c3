// Command roccsweep sweeps the §5.1 fluid model of the RoCC loop over
// flow counts and gain scalings, using the real quantized controller
// (internal/core) rather than its linearization. It prints a stability
// map — the complement of Figs. 5-7 computed nonlinearly — and, with
// -csv, writes the raw grid for external plotting.
//
// The (configuration × N) grid cells are independent fluid integrations,
// so they fan out across -workers parallel workers; results are merged
// back in grid order, so -workers only changes the wall time, never the
// output.
//
// Usage:
//
//	roccsweep [-gbps 40] [-maxn 256] [-tol 0.15] [-workers 0] [-csv file]
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"

	"rocc/internal/core"
	"rocc/internal/fluid"
	"rocc/internal/harness"
)

func main() {
	gbps := flag.Float64("gbps", 40, "link bandwidth")
	maxN := flag.Int("maxn", 256, "largest flow count to sweep")
	tol := flag.Float64("tol", 0.15, "convergence band around the Eq. 1 fixed point")
	workers := flag.Int("workers", 0, "parallel workers for the sweep grid (0 = GOMAXPROCS)")
	csvPath := flag.String("csv", "", "write the raw (scale, N, converged, finalRate) grid as CSV")
	flag.Parse()

	scales := []float64{4, 2, 1, 0.5, 0.25}
	fmt.Printf("fluid stability sweep: B=%.0fG, tol=%.0f%%, auto-tune ON vs gains pinned at scale×(α̃, β̃)\n\n", *gbps, *tol*100)
	fmt.Printf("%-22s", "configuration")
	var ns []int
	for n := 2; n <= *maxN; n *= 2 {
		fmt.Printf(" N=%-4d", n)
		ns = append(ns, n)
	}
	fmt.Println()

	// Build the full (configuration × N) cell grid up front, then fan it
	// out; the harness slots results by cell index, keeping the table and
	// CSV rows in the same order as the old serial double loop.
	type cell struct {
		label string
		cfg   core.CPConfig
		n     int
	}
	var cells []cell
	addRow := func(label string, mutate func(*core.CPConfig)) {
		cfg := core.CPConfigForGbps(*gbps)
		mutate(&cfg)
		for _, n := range ns {
			cells = append(cells, cell{label, cfg, n})
		}
	}
	addRow("auto-tuned", func(*core.CPConfig) {})
	for _, sc := range scales {
		sc := sc
		addRow(fmt.Sprintf("pinned %.2gx", sc), func(c *core.CPConfig) {
			c.DisableAutoTune = true
			c.AlphaTilde *= sc
			c.BetaTilde *= sc
		})
	}

	rs := harness.Run(cells, *workers, func(c cell) fluid.Result {
		return fluid.Run(fluid.Config{
			CP: c.cfg, N: c.n, LinkMbps: *gbps * 1000, T: 40e-6, Steps: 6000,
		})
	})

	var rows [][]string
	for i, r := range rs {
		if i%len(ns) == 0 {
			fmt.Printf("%-22s", cells[i].label)
		}
		if r.Err != nil {
			fmt.Printf(" err  ")
			rows = append(rows, []string{cells[i].label, strconv.Itoa(cells[i].n), "err", ""})
		} else {
			mark := "ok   "
			conv := 1
			if !r.Value.Converged(*tol) {
				mark = "FAIL "
				conv = 0
			}
			fmt.Printf(" %s", mark)
			rows = append(rows, []string{
				cells[i].label, strconv.Itoa(cells[i].n), strconv.Itoa(conv),
				strconv.FormatFloat(r.Value.FinalRate(), 'g', 6, 64),
			})
		}
		if i%len(ns) == len(ns)-1 {
			fmt.Println()
		}
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w := csv.NewWriter(f)
		w.Write([]string{"config", "n", "converged", "final_rate_mbps"})
		w.WriteAll(rows)
		w.Flush()
		fmt.Printf("\nwrote %s\n", *csvPath)
	}
}
