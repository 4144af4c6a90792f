package exec

// golden holds the recorded outcome (see outcomeOf) of every pinned
// run, keyed by test name. Recorded at commit 756defc, where the row
// engine still ran the range scans, merge joins and nestloops and both
// layouts agreed on every sweep case.
var golden = map[string]string{
	"TestBatchSweepDeepPipeline":           "elapsed=1.84581458s finish=[0@390.65729ms 1@203.178645ms 2@586.035935ms 3@762.21458ms 4@1.84581458s] disk={Reads:[0 0 10] Busy:285.71428ms Queued:0s} rows=7200 fnv=c98adcc084dd5b65",
	"TestBatchSweepHashJoinAgg":            "elapsed=707.364508ms finish=[0@187.478645ms 1@707.364508ms] disk={Reads:[0 7 8] Busy:345.238086ms Queued:249.999994ms} rows=80 fnv=b09ae43764bce419",
	"TestBatchSweepIndexScan":              "elapsed=1.090807963s finish=[0@1.090807963s] disk={Reads:[179 92 4] Busy:3.492979746s Queued:3.276921929s} rows=300 fnv=217c8c9e55576f4d",
	"TestBatchSweepNestLoopIndexInner":     "elapsed=6.615064398s finish=[0@6.615064398s] disk={Reads:[0 0 4] Busy:114.285712ms Queued:0s} rows=90 fnv=f5bd8db06090d54d",
	"TestBatchSweepSeqScanFilter":          "elapsed=309.496798ms finish=[0@309.496798ms] disk={Reads:[0 7 4] Busy:230.952374ms Queued:249.999994ms} rows=730 fnv=d8be65b51471103e",
	"TestLiveAdjustmentRangeScan/newDeg=1": "elapsed=29.990350174s finish=[] disk={Reads:[565 1431 4] Busy:29.789026828s Queued:1.40831436s} rows=2000 fnv=6dd4af9bde18c2bd",
	"TestLiveAdjustmentRangeScan/newDeg=4": "elapsed=12.898293201s finish=[] disk={Reads:[592 1404 4] Busy:29.617377352s Queued:9.876924663s} rows=2000 fnv=6dd4af9bde18c2bd",
	"TestLiveAdjustmentRangeScan/newDeg=8": "elapsed=10.036147368s finish=[] disk={Reads:[609 1387 4] Busy:29.509301756s Queued:26.243489236s} rows=2000 fnv=6dd4af9bde18c2bd",
	"TestMergeJoinQuery":                   "elapsed=425.018226ms finish=[0@214.034113ms 1@410.068226ms 2@425.018226ms] disk={Reads:[0 1 7] Busy:216.666662ms Queued:28.571428ms} rows=1500 fnv=c70d70fd4b781e63",
	"TestNestLoopMaterializedInner":        "elapsed=256.57237ms finish=[0@75.372315ms 1@256.57237ms] disk={Reads:[0 0 2] Busy:57.142856ms Queued:0s} rows=30 fnv=cbd391093bfdedfd",
	"TestNestLoopQuery":                    "elapsed=3.067764118s finish=[0@3.067764118s] disk={Reads:[0 0 2] Busy:57.142856ms Queued:0s} rows=40 fnv=32b296d152efbfd3",
	"TestSweepSlaveCountResults/procs=1":   "elapsed=3.219823648s finish=[0@595.818945ms 1@3.219823648s] disk={Reads:[7 0 8] Busy:300.73637ms Queued:114.285712ms} rows=80 fnv=b09ae43764bce419",
	"TestSweepSlaveCountResults/procs=3":   "elapsed=1.285204808s finish=[0@278.00451ms 1@1.285204808s] disk={Reads:[0 7 8] Busy:345.238086ms Queued:249.999994ms} rows=80 fnv=b09ae43764bce419",
	"TestSweepSlaveCountResults/procs=8":   "elapsed=707.364508ms finish=[0@187.478645ms 1@707.364508ms] disk={Reads:[0 7 8] Busy:345.238086ms Queued:249.999994ms} rows=80 fnv=b09ae43764bce419",
}
