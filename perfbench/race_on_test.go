//go:build race

package main

// raceEnabled lengthens the smoke run, whose throughput the race
// detector cuts several-fold, so its latency tail still has the samples
// the percentile helper requires.
const raceEnabled = true
