// The benchmark is a module of its own so that the repository's
// `go build ./... && go test ./...` never compiles or runs it; the
// import path stays under xprs/ so it may import xprs/internal/...
module xprs/bench

go 1.22

require xprs v0.0.0

replace xprs => ../
