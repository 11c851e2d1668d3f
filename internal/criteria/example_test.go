package criteria_test

import (
	"fmt"

	"repro/internal/criteria"
	"repro/internal/table"
)

// The Fig. 4 Flights example: an hour-range check expressed as a criterion
// instead of a generated Python function.
func ExampleCriterion_EvalAt() {
	c := &criteria.Criterion{
		Kind: criteria.KindRange, Attr: "ArrHour",
		Name: "is_clean_hour_range", Lo: 1, Hi: 12,
	}
	d := table.New("flights", []string{"ArrHour"})
	d.MustAppendRow([]string{"7"})
	d.MustAppendRow([]string{"25"})
	fmt.Println(c.EvalAt(d, 0, 0))
	fmt.Println(c.EvalAt(d, 1, 0))
	// Output:
	// true
	// false
}

// The Fig. 4 Hospital example: cross-attribute consistency via a
// dependency criterion.
func ExampleCriterion_EvalAt_crossAttribute() {
	c := &criteria.Criterion{
		Kind: criteria.KindFD, Attr: "Condition",
		Name:    "is_clean_consistent_with_measure_code",
		DetAttr: "MeasureCode",
		Mapping: map[string]string{"SCIP-INF-1": "surgical infection prevention"},
	}
	d := table.New("hospital", []string{"MeasureCode", "Condition"})
	d.MustAppendRow([]string{"SCIP-INF-1", "pneumonia"})
	fmt.Println(c.EvalAt(d, 0, 1))
	// Output: false
}
