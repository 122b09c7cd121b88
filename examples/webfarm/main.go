// Webfarm demonstrates the live side of the reproduction: a real HTTP
// cluster of rate-limited application instances behind a weighted load
// balancer, reconfigured through the paper's stateless migration (start new
// instance → update balancer → drain old instance) while a closed-loop
// client ramps the offered load up and back down.
//
// Service rates are scaled to 10% of hardware scale so the whole farm fits
// in one process. The run takes about half a minute.
//
// Run with: go run ./examples/webfarm
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	"repro/internal/bml"
	"repro/internal/loadgen"
	"repro/internal/profile"
	"repro/internal/webapp"
)

const rateScale = 0.1 // emulated Paravance ≈ 133 req/s, Chromebook ≈ 3.3 req/s

func main() {
	log.SetFlags(0)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	planner, err := bml.NewPlanner(profile.PaperMachines())
	if err != nil {
		log.Fatal(err)
	}
	farm, err := webapp.NewFarm(planner.Candidates(), webapp.InstanceConfig{
		RateScale: rateScale,
		Seed:      42,
		Patience:  1500 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer farm.Close(ctx)

	front := httptest.NewServer(farm.LoadBalancer())
	defer front.Close()
	table := planner.Lookup(planner.Big().MaxPerf * 2)

	// Start with a single Medium instance.
	if err := farm.Reconfigure(ctx, map[string]int{profile.Chromebook: 1}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("farm up at %s, initial counts %v\n\n", front.URL, farm.Counts())

	// Ramp the client load up and back down; after each phase, measure the
	// achieved rate and reconfigure to the ideal combination for it.
	for _, conc := range []int{1, 4, 16, 4, 1} {
		res, err := loadgen.Run(ctx, front.URL, conc, 4*time.Second)
		if err != nil {
			log.Fatal(err)
		}
		hwRate := res.Rate / rateScale * 1.2 // 20% headroom like a cautious operator
		target := map[string]int{}
		for i, n := range table.Counts(hwRate, nil) {
			if n > 0 {
				target[table.Candidates()[i].Name] = n
			}
		}
		if err := farm.Reconfigure(ctx, target); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("clients=%2d achieved %6.1f req/s (hw-scale %5.0f) → reconfigured to %v (capacity %.1f req/s)\n",
			conc, res.Rate, hwRate, farm.Counts(), farm.Capacity())
	}

	fmt.Println("\nfinal backend set:", farm.LoadBalancer().Backends())
	fmt.Println("per-backend forwarded requests:", farm.LoadBalancer().ServedCounts())
}
