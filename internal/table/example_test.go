package table_test

import (
	"fmt"

	"repro/internal/table"
)

func ExampleDataset_SerializeRows() {
	d := table.New("tax", []string{"Name", "Salary"})
	d.MustAppendRow([]string{"Carol Brown", "60000"})
	d.MustAppendRow([]string{"Dave Green", "64000"})
	fmt.Print(d.SerializeRows([]int{0, 1}))
	// Output:
	// Name: Carol Brown, Salary: 60000
	// Name: Dave Green, Salary: 64000
}

func ExampleErrorMask() {
	clean := table.New("t", []string{"City", "State"})
	clean.MustAppendRow([]string{"Chicago", "IL"})
	dirty := clean.Clone()
	dirty.SetValue(0, 1, "CA")
	mask, _ := table.ErrorMask(dirty, clean)
	fmt.Println(mask[0][0], mask[0][1])
	// Output: false true
}
