// Bring-your-own-data: write a CSV, load it with the table package, run
// ZeroED without any ground truth, and inspect the flagged cells. This is
// the deployment-shaped workflow: no labels, no rules, just a dirty file.
//
//	go run ./examples/custom
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/repair"
	"repro/internal/table"
	"repro/internal/zeroed"
)

// employeeCSV simulates a messy HR export: note the typo in row 3
// ("Bechxlor"), the missing gender in row 4, the outlier salary in row 5,
// and the rule violation in row 6 (Springfield placed in CA).
const employeeCSV = `Name,Gender,Education,Salary,City,State
Alice Johnson,F,Master,72000,Chicago,IL
Bob Smith,M,Bachelor,65000,Chicago,IL
Carol Brown,F,Bechxlor,64000,Springfield,IL
Dave Green,,Phd,88000,Chicago,IL
Erin White,F,Master,6400000,Springfield,IL
Frank Black,M,Bachelor,61000,Springfield,CA
`

func main() {
	// Write and re-read the CSV the way a real integration would.
	dir, err := os.MkdirTemp("", "zeroed-custom")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "employees.csv")
	if err := os.WriteFile(path, []byte(employeeCSV), 0o644); err != nil {
		log.Fatal(err)
	}
	d, err := table.ReadCSVFile("employees", path)
	if err != nil {
		log.Fatal(err)
	}

	// Replicate the tiny table so the pipeline has distributional signal —
	// real deployments run on thousands of rows.
	big := table.New(d.Name, d.Attrs)
	for copyIdx := 0; copyIdx < 60; copyIdx++ {
		for i := 0; i < d.NumRows(); i++ {
			row := append([]string(nil), d.Row(i)...)
			if copyIdx > 0 {
				// Only the first block keeps the injected problems; the
				// rest provide the clean background distribution.
				switch i {
				case 2:
					row[2] = "Bachelor"
				case 3:
					row[1] = "F"
				case 4:
					row[3] = "64000"
				case 5:
					row[5] = "IL"
				}
			}
			big.MustAppendRow(row)
		}
	}

	res, err := zeroed.New(zeroed.Config{Seed: 3, LabelRate: 0.08}).DetectOn(context.Background(), nil, big)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("scanned %d cells; flagged:\n", big.NumCells())
	for i := 0; i < d.NumRows(); i++ { // report on the first (dirty) block
		for j := 0; j < big.NumCols(); j++ {
			if res.Pred[i][j] {
				fmt.Printf("  row %d, %-9s = %q\n", i, big.Attrs[j], big.Value(i, j))
			}
		}
	}
	fmt.Printf("\nLLM cost: %d calls, %d tokens total\n", res.Usage.Calls, res.Usage.Total())

	// Close the cleaning loop: propose repairs for the flagged cells using
	// dependencies and frequent values mined from the unflagged data.
	_, fixes := repair.New(repair.Config{}).Apply(big, res.Pred)
	fmt.Println("\nproposed repairs (first dirty block):")
	for _, f := range fixes {
		if f.Row < d.NumRows() {
			fmt.Printf("  row %d, %-9s: %q -> %q (%s)\n", f.Row, big.Attrs[f.Col], f.Old, f.New, f.Strategy)
		}
	}
}
