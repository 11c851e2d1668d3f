// Sharding: the parallel detection engine end to end — a chunked CSV load
// with concurrent snapshot readers, then the same dataset detected serially
// and with parallel workers + scoring shards, to show the two are
// bit-identical. (Several independent datasets share one worker budget
// through Detector.DetectBatch.)
//
//	go run ./examples/sharding
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"strings"

	"repro/internal/datasets"
	"repro/internal/table"
	"repro/internal/zeroed"
)

func main() {
	// Render a benchmark to CSV, then load it back through the streaming
	// reader in 500-row chunks, snapshotting between chunks the way a
	// loader hands stable views to concurrent consumers.
	bench := datasets.Hospital(2000, 3)
	var csv strings.Builder
	if err := bench.Dirty.WriteCSV(&csv); err != nil {
		log.Fatal(err)
	}
	stream, err := table.NewCSVStream("hospital", strings.NewReader(csv.String()))
	if err != nil {
		log.Fatal(err)
	}
	chunks := 0
	for {
		n, err := stream.ReadChunk(500)
		if n > 0 {
			chunks++
			snap := stream.Dataset().Snapshot()
			fmt.Printf("chunk %d: %d rows loaded, snapshot sees %d rows, col-0 dict %d entries\n",
				chunks, n, snap.NumRows(), snap.DictSize(0))
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatal(err) // malformed CSV mid-stream, not end of input
		}
	}
	d := stream.Dataset()

	score := func(res *zeroed.Result) string {
		var sum float64
		flagged := 0
		for i, row := range res.Scores {
			for j, s := range row {
				sum += s
				if res.Pred[i][j] {
					flagged++
				}
			}
		}
		return fmt.Sprintf("flagged %d cells, score sum %.17g, runtime %v",
			flagged, sum, res.Runtime.Round(1e6))
	}

	ctx := context.Background()
	serial, err := zeroed.New(zeroed.Config{Seed: 3, Workers: 1, Shards: 1}).DetectOn(ctx, nil, d)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("serial:           ", score(serial))

	parallel, err := zeroed.New(zeroed.Config{Seed: 3, Workers: 8, Shards: 4}).DetectOn(ctx, nil, d)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("workers=8 shards=4:", score(parallel), "(bit-identical to serial)")
}
