// Vacation: a miniature travel-reservation system in the spirit of STAMP's
// vacation benchmark (itself inspired by SpecJBB2000), which the paper uses
// as its large-transaction workload.
//
// The database holds flights, rooms and cars, each with a capacity and a
// price table. Customer threads book whole trips — several resources
// reserved atomically — producing transactions with tens of blocks in their
// read/write sets, exactly the "naive TM programmer" usage TokenTM is built
// to support. The example verifies that no resource is ever oversold and
// that bookings balance revenue.
package main

import (
	"fmt"
	"math/rand"

	"tokentm"
)

// Database layout: each record occupies its own 64-byte block.
//
//	resource r of kind k:
//	  word 0: remaining capacity
//	  word 1: price
//	  word 2: times booked
const (
	kinds        = 3 // flights, rooms, cars
	perKind      = 256
	initialSeats = 100
	customers    = 16
	tripsPerCust = 60
)

var kindName = [kinds]string{"flights", "rooms", "cars"}

func record(kind, idx int) tokentm.Addr {
	return tokentm.Addr(0x200000 + (kind*perKind+idx)*tokentm.BlockBytes)
}

// revenueAddr tracks total money collected (one block per customer thread to
// avoid making revenue itself a hot spot).
func revenueAddr(cust int) tokentm.Addr {
	return tokentm.Addr(0x800000 + cust*tokentm.BlockBytes)
}

func main() {
	sys := tokentm.New(tokentm.Config{Variant: tokentm.VariantTokenTM, Cores: 8, Seed: 7})

	// Populate the database.
	for k := 0; k < kinds; k++ {
		for i := 0; i < perKind; i++ {
			sys.StoreWord(record(k, i), initialSeats)
			sys.StoreWord(record(k, i)+8, uint64(50+10*k+i%37)) // price
		}
	}

	booked := make([]int, customers)
	for c := 0; c < customers; c++ {
		c := c
		seed := int64(c * 977)
		sys.Spawn(func(tc *tokentm.Ctx) {
			rng := rand.New(rand.NewSource(seed))
			for trip := 0; trip < tripsPerCust; trip++ {
				// A trip books 1-4 resources of each kind; the whole
				// itinerary commits or nothing does.
				var wants [kinds][]int
				for k := 0; k < kinds; k++ {
					n := 1 + rng.Intn(4)
					for j := 0; j < n; j++ {
						wants[k] = append(wants[k], rng.Intn(perKind))
					}
				}
				ok := false
				tc.Atomic(func(tx *tokentm.Tx) {
					ok = false
					var cost uint64
					// Check availability of everything first (read set).
					for k := 0; k < kinds; k++ {
						for _, idx := range wants[k] {
							if tx.Load(record(k, idx)) == 0 {
								return // sold out: abort the whole trip
							}
							cost += tx.Load(record(k, idx) + 8)
						}
					}
					// Reserve (write set).
					for k := 0; k < kinds; k++ {
						for _, idx := range wants[k] {
							r := record(k, idx)
							tx.Store(r, tx.Load(r)-1)
							tx.Store(r+16, tx.Load(r+16)+1)
						}
					}
					tx.Store(revenueAddr(c), tx.Load(revenueAddr(c))+cost)
					ok = true
				})
				if ok {
					booked[c]++
				}
				tc.Work(300)
			}
		})
	}
	cycles := sys.Run()

	// Validate: capacity + bookings == initial for every record, and no
	// record oversold.
	oversold := 0
	totalBookings := uint64(0)
	for k := 0; k < kinds; k++ {
		for i := 0; i < perKind; i++ {
			cap := sys.Load(record(k, i))
			n := sys.Load(record(k, i) + 16)
			if cap+n != initialSeats {
				oversold++
			}
			totalBookings += n
		}
	}
	var revenue uint64
	trips := 0
	for c := 0; c < customers; c++ {
		revenue += sys.Load(revenueAddr(c))
		trips += booked[c]
	}

	fmt.Printf("simulated %d cycles; %d customers booked %d trips (%d resource bookings)\n",
		cycles, customers, trips, totalBookings)
	fmt.Printf("revenue collected: %d\n", revenue)
	if oversold == 0 {
		fmt.Println("consistency: every record satisfies capacity + bookings == initial")
	} else {
		fmt.Printf("CONSISTENCY VIOLATION in %d records\n", oversold)
	}

	d := sys.Detail("vacation", tokentm.VariantTokenTM)
	var rs, ws float64
	for _, r := range d.Commits {
		rs += float64(r.ReadBlocks)
		ws += float64(r.WriteBlocks)
	}
	n := float64(len(d.Commits))
	fmt.Printf("transactions: %d committed, avg read set %.1f blocks, avg write set %.1f blocks\n",
		len(d.Commits), rs/n, ws/n)
	fmt.Printf("conflicts=%d aborts=%d\n", d.Metrics.Conflicts, len(d.AbortRecs))
	fmt.Printf("fast token release: %d/%d commits\n", d.FastCommits, d.FastCommits+d.SlowCommits)
}
