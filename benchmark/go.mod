module dilos/benchmark

go 1.23

require dilos v0.0.0

replace dilos => ../
