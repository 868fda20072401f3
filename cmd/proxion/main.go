// Command proxion runs the full analysis pipeline over a generated chain
// snapshot: identify every proxy contract (including hidden ones), locate
// logic contracts and their history, and report function and storage
// collisions per pair.
//
// Usage:
//
//	proxion [-contracts N] [-seed S] [-v] [-collisions-only]
//	        [-window N] [-cache-capacity N]
//	        [-resilient] [-faults PROFILE] [-fault-seed S] [-fault-depth D]
//	        [-retries N] [-rpc-timeout D] [-backoff D] [-inflight N]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/chain"
	"repro/internal/dataset"
	"repro/internal/faultchain"
	"repro/internal/proxion"
)

// profileNames lists the -faults values the CLI accepts.
func profileNames() string {
	var names []string
	for _, p := range faultchain.Profiles() {
		names = append(names, p.Name)
	}
	return strings.Join(append(names, faultchain.Outage().Name), ", ")
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "proxion:", err)
		os.Exit(1)
	}
}

func run() error {
	contracts := flag.Int("contracts", 4000, "population size to generate and analyze")
	seed := flag.Int64("seed", 1, "generation seed")
	verbose := flag.Bool("v", false, "print every detected proxy")
	collisionsOnly := flag.Bool("collisions-only", false, "print only pairs with collisions")
	jsonOut := flag.Bool("json", false, "emit a machine-readable summary instead of text")
	window := flag.Int("window", 0, "max in-flight contracts in the analysis pipeline (0 = engine default)")
	cacheCap := flag.Int("cache-capacity", 0, "verdict-cache LRU bound in distinct bytecodes (0 = unbounded)")
	resilient := flag.Bool("resilient", false, "route node reads through the resilient client even with faults off")
	faults := flag.String("faults", "off", "fault-injection profile: off, "+profileNames())
	faultSeed := flag.Int64("fault-seed", 1, "fault schedule seed")
	faultDepth := flag.Int("fault-depth", 0, "override the profile's fault depth (0 keeps the profile default)")
	retries := flag.Int("retries", 0, "max retries per node read (0 = client default)")
	rpcTimeout := flag.Duration("rpc-timeout", 0, "per-read timeout (0 = client default)")
	backoff := flag.Duration("backoff", 0, "base retry backoff (0 = client default)")
	inflight := flag.Int("inflight", 0, "max concurrent node reads (0 = client default)")
	flag.Parse()

	// Progress goes to stderr so -json output stays machine-consumable.
	fmt.Fprintf(os.Stderr, "generating %d-contract chain snapshot (seed %d)...\n", *contracts, *seed)
	pop := dataset.Generate(dataset.Config{Seed: *seed, Contracts: *contracts})
	fmt.Fprintf(os.Stderr, "chain height %d, %d contracts alive\n", pop.Chain.CurrentBlock(), len(pop.Chain.Contracts()))

	// Pick the chain view: the raw snapshot, or the resilient client —
	// optionally over a fault-injecting backend for chaos runs.
	var reader chain.Reader = pop.Chain
	if *faults != "off" || *resilient {
		copts := faultchain.Options{
			MaxRetries:  *retries,
			Timeout:     *rpcTimeout,
			BackoffBase: *backoff,
			MaxInFlight: *inflight,
		}
		var sched *faultchain.Schedule
		if *faults != "off" {
			p, ok := faultchain.ProfileByName(*faults)
			if !ok {
				return fmt.Errorf("unknown fault profile %q (have: off, %s)", *faults, profileNames())
			}
			if *faultDepth > 0 {
				p.Depth = *faultDepth
			}
			s := faultchain.NewSchedule(p, *faultSeed)
			sched = &s
			fmt.Fprintf(os.Stderr, "injecting faults: profile %s, seed %d, depth %d\n", p.Name, *faultSeed, p.Depth)
		}
		client, _ := faultchain.NewResilientReader(pop.Chain, sched, copts)
		reader = client
	}

	det := proxion.NewDetector(reader)
	res := det.AnalyzeAllWithOptions(pop.Registry, proxion.AnalyzeOptions{
		Window:        *window,
		CacheCapacity: *cacheCap,
	})

	if *jsonOut {
		out, err := proxion.Summarize(res).MarshalIndentJSON()
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		return nil
	}

	proxies := res.Proxies()
	if st := res.Stats; st != nil {
		fmt.Printf("\nanalyzed %d contracts in %s (%.0f contracts/s)\n",
			st.Contracts, (time.Duration(st.WallMS * float64(time.Millisecond))).Round(time.Millisecond),
			st.ContractsPerSec)
		fmt.Printf("pipeline: %d emulations, %d cache hits (%.1f%% hit rate), %d aborts, %d getStorageAt calls\n",
			st.Emulations, st.CacheHits, 100*st.CacheHitRate, st.EmulationAborts, st.StorageAPICalls)
		if st.Retries != 0 || st.BreakerTrips != 0 || st.Unresolved != 0 {
			fmt.Printf("resilience: %d read retries, %d breaker trips, %d unresolved contracts\n",
				st.Retries, st.BreakerTrips, st.Unresolved)
		}
		for _, stage := range st.Stages {
			fmt.Printf("  stage %-16s workers=%-3d processed=%-6d busy=%s\n",
				stage.Name, stage.Workers, stage.Processed,
				(time.Duration(stage.BusyMS * float64(time.Millisecond))).Round(time.Millisecond))
		}
	}
	fmt.Printf("proxies: %d (%.1f%%)\n", len(proxies),
		100*float64(len(proxies))/float64(len(res.Reports)))

	byStandard := make(map[proxion.Standard]int)
	var emulationErrs int
	for _, rep := range res.Reports {
		if rep.IsProxy {
			byStandard[rep.Standard]++
		}
		if rep.EmulationErr != nil {
			emulationErrs++
		}
	}
	fmt.Printf("standards: EIP-1167=%d EIP-1822=%d EIP-1967=%d others=%d\n",
		byStandard[proxion.StandardEIP1167], byStandard[proxion.StandardEIP1822],
		byStandard[proxion.StandardEIP1967], byStandard[proxion.StandardOther])
	fmt.Printf("emulation errors: %d\n\n", emulationErrs)

	if *verbose && !*collisionsOnly {
		for _, rep := range proxies {
			fmt.Printf("proxy %s -> logic %s (%s, %s)\n  %s\n",
				rep.Address, rep.Logic, rep.Target, rep.Standard, rep.Reason)
		}
		fmt.Println()
	}

	var funcPairs, storPairs, verified int
	for _, pa := range res.Pairs {
		hasFunc := len(pa.Functions) > 0
		hasStor := len(pa.Storage) > 0
		if hasFunc {
			funcPairs++
		}
		if hasStor {
			storPairs++
		}
		if pa.ExploitVerified {
			verified++
		}
		if (*verbose || *collisionsOnly) && (hasFunc || hasStor) {
			fmt.Printf("pair %s / %s:\n", pa.Proxy, pa.Logic)
			for _, fc := range pa.Functions {
				label := fmt.Sprintf("selector 0x%x", fc.Selector)
				if fc.ProxyProto != "" {
					label += fmt.Sprintf(" (%s vs %s)", fc.ProxyProto, fc.LogicProto)
				}
				fmt.Printf("  function collision: %s\n", label)
			}
			for _, sc := range pa.Storage {
				fmt.Printf("  storage collision: slot %s proxy[%d:%d) vs logic[%d:%d) exploitable=%v verified=%v\n",
					sc.Slot, sc.ProxyOffset, sc.ProxyOffset+sc.ProxySize,
					sc.LogicOffset, sc.LogicOffset+sc.LogicSize, sc.Exploitable, sc.Verified)
			}
		}
	}
	fmt.Printf("collision summary: %d pairs with function collisions, %d with storage collisions, %d verified exploits\n",
		funcPairs, storPairs, verified)
	return nil
}
