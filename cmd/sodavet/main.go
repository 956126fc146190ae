// Command sodavet runs this module's determinism and zero-overhead
// analyzers (see lint/...) over the module's packages:
//
//	go run ./cmd/sodavet ./...                 # findings on stderr
//	go run ./cmd/sodavet -json ./...           # findings as a JSON array on stdout
//	go run ./cmd/sodavet -suppressions ./...   # list every suppression site
//
// Exit status: 0 clean, 1 findings, 2 operational failure. Suppress a
// finding with a scoped annotation on (or directly above) the flagged line:
//
//	//lint:allow <analyzer> (reason)
package main

import (
	"os"

	"soda/lint"
	"soda/lint/mapiterorder"
	"soda/lint/noalloc"
	"soda/lint/nogoroutine"
	"soda/lint/norawrand"
	"soda/lint/nowallclock"
	"soda/lint/obszerocost"
	"soda/lint/parcapture"
	"soda/lint/segshare"
)

func main() {
	os.Exit(lint.Main(os.Args[1:], []*lint.Analyzer{
		nowallclock.Analyzer,
		norawrand.Analyzer,
		nogoroutine.Analyzer,
		mapiterorder.Analyzer,
		obszerocost.Analyzer,
		noalloc.Analyzer,
		segshare.Analyzer,
		parcapture.Analyzer,
	}))
}
