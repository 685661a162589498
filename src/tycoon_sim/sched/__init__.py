"""Core scheduling algorithms: the timeslice auction and proportional share."""
