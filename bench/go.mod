module safetypin/bench

go 1.21

require safetypin v0.0.0

replace safetypin => ../
